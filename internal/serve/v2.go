package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve/api"
	"repro/internal/telemetry"
)

// v2 handlers: the unified envelope (internal/serve/api) rendered with
// typed errors. The resolution and prediction core are shared with the
// v1 adapters — only the wire shapes differ.

// v2Predict resolves and executes one predict request on the given
// admission lane. ctx carries the request's deadline; timeout is the
// same budget by name, for failure messages.
func (s *Server) v2Predict(ctx context.Context, req api.PredictRequest, lane int, timeout time.Duration) (*api.PredictResult, *api.Error) {
	res, apiErr := api.ResolvePredict(req, api.V2)
	if apiErr != nil {
		return nil, apiErr
	}
	out, err := s.predictCore(ctx, lane, res.K, res.P, res.D)
	if err != nil {
		return nil, s.predictErr(err, timeout)
	}
	est := out.est
	return &api.PredictResult{
		Kernel:        res.K.ID(),
		SourceHash:    out.sourceHash,
		Platform:      res.PlatformKey,
		Design:        api.DesignToWire(res.D),
		EffectiveMode: est.Mode.String(),
		Cycles:        est.Cycles,
		Seconds:       est.Seconds,
		IIComp:        est.IIComp,
		Depth:         est.Depth,
		NPE:           est.NPE,
		NCU:           est.NCU,
		Cache:         out.cache,
	}, nil
}

func (s *Server) handleV2Predict(w http.ResponseWriter, r *http.Request) {
	var req api.PredictRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeV2Err(w, api.Errf(api.CodeBadRequest, http.StatusBadRequest,
			"bad request body: %v", err))
		return
	}
	res, apiErr := s.v2Predict(r.Context(), req, laneInteractive, s.cfg.RequestTimeout)
	if apiErr != nil {
		writeV2Err(w, apiErr)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleV2Batch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchPredictRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeV2Err(w, api.Errf(api.CodeBadRequest, http.StatusBadRequest,
			"bad request body: %v", err))
		return
	}
	if len(req.Items) == 0 {
		writeV2Err(w, api.Errf(api.CodeBadRequest, http.StatusBadRequest,
			"batch is empty: items must carry at least one prediction"))
		return
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		writeV2Err(w, api.Errf(api.CodeBadRequest, http.StatusBadRequest,
			"batch of %d items exceeds the limit of %d", len(req.Items), s.cfg.MaxBatchItems))
		return
	}

	// Fan the items out on the bulk lane: the admission gate bounds how
	// many analyze at once and keeps interactive predicts ahead of the
	// batch, while the singleflight prep cache collapses duplicate
	// kernels inside the batch to one compile+analyze.
	resp := api.BatchPredictResponse{Items: make([]api.BatchItem, len(req.Items))}
	var wg sync.WaitGroup
	for i := range req.Items {
		item := req.Items[i]
		if item.Platform == "" {
			item.Platform = req.Platform
		}
		wg.Add(1)
		go func(i int, item api.PredictRequest) {
			defer wg.Done()
			ictx, isp := telemetry.Start(r.Context(), "item")
			isp.Annotate("index", fmt.Sprint(i))
			defer isp.End()
			res, apiErr := s.v2Predict(ictx, item, laneBulk, s.cfg.BatchTimeout)
			if apiErr != nil {
				isp.Annotate("error", apiErr.Code)
				resp.Items[i] = api.BatchItem{OK: false, Error: apiErr}
				return
			}
			resp.Items[i] = api.BatchItem{OK: true, Result: res}
		}(i, item)
	}
	wg.Wait()
	for _, it := range resp.Items {
		if it.OK {
			resp.Succeeded++
		} else {
			resp.Failed++
		}
	}
	s.reg.Counter("batch_items_total", `outcome="ok"`).Add(uint64(resp.Succeeded))
	s.reg.Counter("batch_items_total", `outcome="error"`).Add(uint64(resp.Failed))
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleV2Explore(w http.ResponseWriter, r *http.Request) {
	var req api.ExploreRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeV2Err(w, api.Errf(api.CodeBadRequest, http.StatusBadRequest,
			"bad request body: %v", err))
		return
	}
	k, e := api.ResolveKernel(req.Kernel, api.V2)
	if e != nil {
		writeV2Err(w, e)
		return
	}
	p, key, e := api.ResolvePlatform(req.Platform)
	if e != nil {
		writeV2Err(w, e)
		return
	}
	j, e := s.submitExplore(exploreRequest{
		Bench:        k.Bench,
		Kernel:       k.Name,
		Platform:     key,
		Prune:        req.Prune,
		Sim:          req.Sim,
		SimMaxGroups: req.SimMaxGroups,
		Workers:      req.Workers,
		Top:          req.Top,
		Search:       req.Search,
		k:            k,
		p:            p,
	})
	if e != nil {
		writeV2Err(w, e)
		return
	}
	s.log.Info("explore job queued", "id", j.ID, "kernel", k.ID(), "platform", p.Name)
	w.Header().Set("Location", "/v2/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, api.JobAccepted{
		ID:     j.ID,
		Kernel: k.ID(),
		State:  JobQueued,
		URL:    "/v2/jobs/" + j.ID,
	})
}

func (s *Server) handleV2Job(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.pool.get(id)
	if !ok {
		writeV2Err(w, api.Errf(api.CodeNotFound, http.StatusNotFound,
			"unknown job %q (see POST /v2/explore)", id))
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}
