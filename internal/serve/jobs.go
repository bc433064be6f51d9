package serve

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/obs"
	"repro/internal/serve/api"
)

// Job states (wire values shared with the v2 envelope).
const (
	JobQueued   = api.JobQueued
	JobRunning  = api.JobRunning
	JobDone     = api.JobDone
	JobFailed   = api.JobFailed
	JobCanceled = api.JobCanceled
)

// Job is one asynchronous design-space exploration.
type Job struct {
	ID string

	mu       sync.Mutex
	state    string
	err      string
	created  time.Time
	started  time.Time
	finished time.Time
	req      exploreRequest
	summary  *exploreSummary
}

// exploreRequest is the v1 wire shape of an exploration submission plus
// the resolved targets the worker runs against. v2 submissions resolve
// through the api envelope first (which also admits inline kernels) and
// fill k/p directly; v1 fills them through the same resolution.
type exploreRequest struct {
	Bench        string `json:"bench"`
	Kernel       string `json:"kernel"`
	Platform     string `json:"platform"`
	Prune        bool   `json:"prune_infeasible"`
	Sim          bool   `json:"sim"`
	SimMaxGroups int    `json:"sim_max_groups"`
	Workers      int    `json:"workers"`
	Top          int    `json:"top"`

	// Search is the exploration strategy ("", exhaustive, guided,
	// pareto). v2-only: it is excluded from the JSON shape above so the
	// v1 endpoint's strict decoder keeps rejecting unknown fields and
	// the v1 wire surface stays frozen.
	Search string `json:"-"`

	k *bench.Kernel
	p *device.Platform
}

// Wire view types shared with the v2 envelope; the aliases keep the v1
// rendering (and this package's tests) pointed at one definition.
type (
	pointJSON      = api.Point
	exploreSummary = api.ExploreSummary
	jobView        = api.JobView
)

func (j *Job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:       j.ID,
		State:    j.state,
		Kernel:   j.req.Bench + "/" + j.req.Kernel,
		Platform: j.req.Platform,
		Created:  j.created,
		Error:    j.err,
		Summary:  j.summary,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

func (j *Job) setState(state string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	switch state {
	case JobRunning:
		j.started = time.Now()
	case JobDone, JobFailed, JobCanceled:
		j.finished = time.Now()
	}
}

// jobPool runs exploration jobs on a fixed set of worker goroutines
// with a bounded intake queue. Closing the pool (graceful drain) stops
// intake but lets queued and running jobs finish; the drain deadline
// cancels stragglers hard through their context.
type jobPool struct {
	srv     *Server
	queue   chan *Job
	wg      sync.WaitGroup
	workers int

	hardCtx    context.Context
	hardCancel context.CancelFunc

	mu     sync.Mutex
	seq    uint64
	jobs   map[string]*Job
	order  []string // insertion order, for history trimming
	closed bool
}

// maxRetainedJobs bounds the finished-job history.
const maxRetainedJobs = 1024

func newJobPool(srv *Server, workers, depth int) *jobPool {
	ctx, cancel := context.WithCancel(context.Background())
	p := &jobPool{
		srv:        srv,
		queue:      make(chan *Job, depth),
		workers:    workers,
		hardCtx:    ctx,
		hardCancel: cancel,
		jobs:       make(map[string]*Job),
	}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *jobPool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		if p.hardCtx.Err() != nil {
			j.setState(JobCanceled)
			continue
		}
		j.setState(JobRunning)
		p.srv.runExplore(p.hardCtx, j)
	}
}

// submit enqueues a job, or reports why it can't (draining / full).
func (p *jobPool) submit(req exploreRequest) (*Job, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, fmt.Errorf("server is draining")
	}
	p.seq++
	j := &Job{
		ID:      fmt.Sprintf("j%06d", p.seq),
		state:   JobQueued,
		created: time.Now(),
		req:     req,
	}
	select {
	case p.queue <- j:
	default:
		return nil, fmt.Errorf("job queue full (%d queued)", cap(p.queue))
	}
	p.jobs[j.ID] = j
	p.order = append(p.order, j.ID)
	p.trimLocked()
	return j, nil
}

// trimLocked drops the oldest finished jobs beyond the retention bound.
func (p *jobPool) trimLocked() {
	for len(p.order) > maxRetainedJobs {
		dropped := false
		for i, id := range p.order {
			j := p.jobs[id]
			j.mu.Lock()
			fin := j.state == JobDone || j.state == JobFailed || j.state == JobCanceled
			j.mu.Unlock()
			if fin {
				delete(p.jobs, id)
				p.order = append(p.order[:i], p.order[i+1:]...)
				dropped = true
				break
			}
		}
		if !dropped {
			return // everything live; let it grow
		}
	}
}

func (p *jobPool) get(id string) (*Job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	return j, ok
}

// counts returns jobs by state.
func (p *jobPool) counts() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int)
	for _, j := range p.jobs {
		j.mu.Lock()
		out[j.state]++
		j.mu.Unlock()
	}
	return out
}

func (p *jobPool) exportMetrics(reg *obs.Registry) {
	c := p.counts()
	for _, state := range []string{JobQueued, JobRunning, JobDone, JobFailed, JobCanceled} {
		reg.Gauge("jobs", fmt.Sprintf(`state="%s"`, state)).Set(float64(c[state]))
	}
	reg.Gauge("jobs_inflight", "").Set(float64(c[JobQueued] + c[JobRunning]))
}

// stop drains the pool: no new intake, queued + running jobs finish.
// When ctx expires first, remaining jobs are cancelled through the hard
// context and stop returns the deadline error.
func (p *jobPool) stop(ctx context.Context) error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		p.hardCancel()
		<-done
		return ctx.Err()
	}
}

// runExplore executes one job through the shared prep cache: an
// exhaustive dse.Explore, or dse.Search for guided and pareto jobs. Both
// handlers resolve the kernel and platform before submitting.
func (s *Server) runExplore(ctx context.Context, j *Job) {
	req, k := j.req, j.req.k
	ctx, cancel := context.WithTimeout(ctx, s.cfg.ExploreTimeout)
	defer cancel()
	t0 := time.Now()
	// Each job gets its own trace under a predictable id so operators
	// can pull /debug/traces/job-{id} after polling the job.
	ctx, root := s.tracer.StartTrace(ctx, "job-"+j.ID, "explore "+k.ID())
	root.Annotate("job", j.ID)
	root.Annotate("kernel", k.ID())
	defer root.End()

	var (
		sum    exploreSummary
		points []dse.Point
		attrs  = []any{"id", j.ID, "kernel", k.ID()} // of the done log line
		err    error
	)
	if req.Search == "" {
		s.reg.Counter("explore_search_total", `search="exhaustive"`).Inc()
		var r *dse.Result
		r, err = dse.Explore(ctx, k, dse.Options{
			Platform:        req.p,
			SkipActual:      !req.Sim,
			SkipBaseline:    true,
			SimMaxGroups:    req.SimMaxGroups,
			PruneInfeasible: req.Prune,
			Workers:         req.Workers,
			Cache:           s.prep,
		})
		if err == nil {
			points = r.Points
			sum = exploreSummary{
				BaselineFailures: r.BaselineFailures,
				WallMS:           float64(r.WallTime.Microseconds()) / 1000,
				ModelMS:          float64(r.ModelTime.Microseconds()) / 1000,
				SimMS:            float64(r.SimTime.Microseconds()) / 1000,
			}
			if best, ok := r.BestByModel(); ok {
				sum.Best = pointOf(best)
			}
			s.reg.Counter("dse_points_total", `outcome="evaluated"`).Add(uint64(len(r.Points)))
			attrs = append(attrs, "points", len(r.Points))
		}
	} else {
		s.reg.Counter("explore_search_total", fmt.Sprintf(`search="%s"`, req.Search)).Inc()
		var r *dse.SearchResult
		r, err = dse.Search(ctx, k, dse.SearchOptions{
			Platform: req.p,
			Workers:  req.Workers,
			Cache:    s.prep,
			Pareto:   req.Search == api.SearchPareto,
		})
		if err == nil {
			points = r.Points
			sum = exploreSummary{
				WallMS:      float64(r.WallTime.Microseconds()) / 1000,
				ModelMS:     float64(r.ModelTime.Microseconds()) / 1000,
				Search:      req.Search,
				SpacePoints: r.Space,
				Evaluated:   r.Evaluated,
				Pruned:      r.Pruned,
			}
			if r.BestOK {
				sum.Best = pointOf(r.Best)
			}
			for _, pt := range r.Frontier {
				sum.Frontier = append(sum.Frontier, *pointOf(pt))
			}
			s.reg.Counter("dse_points_total", `outcome="evaluated"`).Add(uint64(r.Evaluated))
			s.reg.Counter("dse_points_total", `outcome="pruned"`).Add(uint64(r.Pruned))
			attrs = append(attrs, "search", req.Search, "evaluated", r.Evaluated, "pruned", r.Pruned)
		}
	}
	if err != nil {
		j.mu.Lock()
		j.err = err.Error()
		j.mu.Unlock()
		if ctx.Err() != nil {
			j.setState(JobCanceled)
		} else {
			j.setState(JobFailed)
		}
		s.log.Warn("explore job failed", "id", j.ID, "kernel", k.ID(), "err", err)
		return
	}
	sum.Points = len(points)
	top := req.Top
	if top <= 0 {
		top = 10
	}
	byEst := append([]dse.Point(nil), points...)
	sort.SliceStable(byEst, func(a, b int) bool { return byEst[a].Est < byEst[b].Est })
	for _, pt := range byEst[:min(top, len(byEst))] {
		sum.Top = append(sum.Top, *pointOf(pt))
	}
	j.mu.Lock()
	j.summary = &sum
	j.mu.Unlock()
	j.setState(JobDone)
	s.log.Info("explore job done", append(attrs, "wall", time.Since(t0).Round(time.Millisecond))...)
}

// pointOf renders one design point for a job summary. Guided points
// carry no simulated cycles, so their Actual is omitted.
func pointOf(pt dse.Point) *pointJSON {
	return &pointJSON{Design: designToJSON(pt.Design), Est: pt.Est, Actual: pt.Actual}
}

// submitExplore validates the bounds shared by both API versions and
// enqueues the job.
func (s *Server) submitExplore(req exploreRequest) (*Job, *api.Error) {
	if req.SimMaxGroups < 0 || req.Workers < 0 || req.Top < 0 {
		return nil, api.Errf(api.CodeBadRequest, http.StatusBadRequest,
			"sim_max_groups, workers and top must be ≥ 0")
	}
	switch req.Search {
	case "", api.SearchExhaustive:
		req.Search = ""
	case api.SearchGuided, api.SearchPareto:
		if req.Sim {
			return nil, api.Errf(api.CodeBadRequest, http.StatusBadRequest,
				"search %q is model-only: it evaluates only the designs its bounds cannot prune, so sim is incompatible (use search=exhaustive)", req.Search)
		}
		if req.Prune {
			return nil, api.Errf(api.CodeBadRequest, http.StatusBadRequest,
				"search %q does not support prune_infeasible (the bound proof covers the full lattice)", req.Search)
		}
	default:
		return nil, api.Errf(api.CodeBadRequest, http.StatusBadRequest,
			"unknown search %q (want exhaustive, guided or pareto)", req.Search)
	}
	if req.Sim && req.SimMaxGroups == 0 {
		req.SimMaxGroups = 8
	}
	if req.Workers == 0 {
		req.Workers = s.cfg.DSEWorkers
	}
	j, err := s.pool.submit(req)
	if err != nil {
		return nil, api.Errf(api.CodeUnavailable, http.StatusServiceUnavailable,
			"cannot accept job: %v", err)
	}
	return j, nil
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var req exploreRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	k, e := api.ResolveKernel(api.KernelRef{Bench: req.Bench, Kernel: req.Kernel}, api.V1)
	if e != nil {
		writeV1Err(w, e)
		return
	}
	p, key, e := api.ResolvePlatform(req.Platform)
	if e != nil {
		writeV1Err(w, e)
		return
	}
	req.Platform = key
	req.k, req.p = k, p
	j, e := s.submitExplore(req)
	if e != nil {
		writeV1Err(w, e)
		return
	}
	s.log.Info("explore job queued", "id", j.ID, "kernel", k.ID(), "platform", p.Name)
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":     j.ID,
		"state":  JobQueued,
		"url":    "/v1/jobs/" + j.ID,
		"kernel": k.ID(),
	})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.pool.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}
