package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/dse"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/pkg/flexclclient"
)

// serve-mix stream shape. A block is one pass of blockRequests
// requests. One inline kernel of every (family, WG size) class goes
// into each block, sent twice: 20 classes × 2 requests are 1 % of a
// block. The other shares and the Zipf exponent are assumptions, not
// measured traffic (NOTES.md).
//
// A run measures blocks for --seconds, at least one. The tail is the
// p75 of the cold (inline) requests: one block's 40 leave ten beyond it.
const (
	blockRequests = 4000
	coldTailPct   = 75
	batchItems    = 16
	// Shares of the non-inline draws, per mille.
	permilleBatch  = 50 // /v2/predict:batch of 16 hot keys
	permilleRandom = 40 // random designs of hot kernels
	zipfExponent   = 1.2
)

// mixPlan is serve-mix's seeded traffic: a hot set of one (kernel,
// design) key per bundled kernel with Zipf popularity over a seeded
// order, a pool of random designs of the hot kernels at their hot
// work-group sizes (whose preps set-up fills, so the model runs), and a
// pool of inline generated kernels. Pool entries are used once per run.
// The hot designs are chosen by pick, not the seed, so set-up prepares
// the same analyses whatever the seed and only the popularity order and
// the request stream vary.
type mixPlan struct {
	hot      []api.PredictRequest // in popularity order
	randPool []api.PredictRequest
	// inline holds one sequence of distinct inline kernels per (family,
	// WG size) class.
	inline     [][]api.PredictRequest
	rng        *rand.Rand
	zipf       *rand.Zipf
	nextRand   int
	nextInline int
}

func corpusRef(k *bench.Kernel) api.KernelRef { return api.KernelRef{ID: k.ID()} }

func newMixPlan(r *run) (*mixPlan, error) {
	rng := rand.New(rand.NewSource(r.seed))
	ks := append([]*bench.Kernel(nil), bench.All()...)
	rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	if r.maxKernels > 0 && r.maxKernels < len(ks) {
		ks = ks[:r.maxKernels]
	}
	m := &mixPlan{rng: rng}
	for _, k := range ks {
		space := dse.Space(k, r.p)
		hot := space[pick(k, 0, len(space))]
		m.hot = append(m.hot, api.PredictRequest{Kernel: corpusRef(k), Design: api.DesignToWire(hot)})
		for _, d := range space {
			if d.WGSize == hot.WGSize && d != hot {
				m.randPool = append(m.randPool, api.PredictRequest{Kernel: corpusRef(k), Design: api.DesignToWire(d)})
			}
		}
	}
	rng.Shuffle(len(m.randPool), func(i, j int) { m.randPool[i], m.randPool[j] = m.randPool[j], m.randPool[i] })
	// A fill's cost depends on the family and the work-group size (the
	// interpreted datadep family at WG 256 costs ~30 ms, a vecadd at WG
	// 16 ~1 ms), so every block sends one kernel of each (family, WG)
	// class. It also grows with the size, so each class's sizes go out
	// from the middle of its range outwards, the same at every seed:
	// seeded sizes moved the cold requests' p90 by up to 2x between
	// seeds. Only the 1-D families qualify: the 2-D ones have at most
	// four sizes inside the corpus range, too few for distinct kernels in
	// every block.
	for _, fam := range bench.GenFamilies() {
		if twoD(fam) {
			continue
		}
		byWG := map[int64]int{}
		for _, n := range genSizes(fam) {
			ref := inlineRef(generate(fam, n))
			k, apiErr := api.ResolveKernel(ref, api.V2)
			if apiErr != nil {
				return nil, fmt.Errorf("inline %s n=%d: %v", fam, n, apiErr)
			}
			for _, wg := range k.WGSizes() {
				i, ok := byWG[wg]
				if !ok {
					i = len(m.inline)
					byWG[wg] = i
					m.inline = append(m.inline, nil)
				}
				m.inline[i] = append(m.inline[i], api.PredictRequest{Kernel: ref, Design: api.Design{WGSize: wg}})
			}
		}
	}
	for c, cl := range m.inline {
		m.inline[c] = middleOut(cl)
	}
	m.zipf = rand.NewZipf(rng, zipfExponent, 1, uint64(len(m.hot)-1))
	return m, nil
}

// middleOut reorders a list from its middle element outwards: m, m-1,
// m+1, m-2, ...
func middleOut[T any](xs []T) []T {
	out := make([]T, len(xs))
	mid := len(xs) / 2
	for i := range xs {
		out[i] = xs[mid+(i+1)/2*(1-2*(i%2))]
	}
	return out
}

// inlineRef is the v2 inline form of a generated kernel: source, entry
// point, launch and scalars; the server synthesizes the buffers.
func inlineRef(k *bench.Kernel) api.KernelRef {
	ref := api.KernelRef{Source: k.Source, Fn: k.Fn, TwoD: k.TwoD, Scalars: k.Scalars}
	for _, g := range k.Global {
		if g > 0 {
			ref.Global = append(ref.Global, g)
		}
	}
	return ref
}

// Request kinds of the stream.
const (
	kindHot = iota
	kindRandom
	kindBatch
	kindInline
	nKinds
)

var kindNames = [nKinds]string{"hot", "random", "batch", "inline"}

// mixReq is one request of a block: a single predict or a batch.
type mixReq struct {
	kind   int
	single *api.PredictRequest
	batch  *api.BatchPredictRequest
}

func (m *mixPlan) hotReq() api.PredictRequest { return m.hot[m.zipf.Uint64()] }

// block draws the next blockRequests requests of the stream: one
// inline pair per class (each kernel sent twice back to back so the
// second request joins the first one's fill) at seeded positions, and
// per-mille draws of batches, random designs and hot repeats around
// them. Inline kernels and random designs are used once per run; a
// class's sequence (16 sizes) wraps after 16 blocks.
func (m *mixPlan) block() []mixReq {
	pairs := make([]api.PredictRequest, len(m.inline))
	for c, cl := range m.inline {
		pairs[c] = cl[m.nextInline%len(cl)]
	}
	m.nextInline++
	rest := blockRequests - 2*len(pairs)
	at := map[int]bool{}
	for _, i := range m.rng.Perm(rest)[:len(pairs)] {
		at[i] = true
	}
	out := make([]mixReq, 0, blockRequests)
	for i := 0; i < rest; i++ {
		if at[i] {
			req := pairs[0]
			pairs = pairs[1:]
			out = append(out, mixReq{kind: kindInline, single: &req}, mixReq{kind: kindInline, single: &req})
		}
		switch x := m.rng.Intn(1000); {
		case x < permilleBatch:
			b := &api.BatchPredictRequest{}
			for i := 0; i < batchItems; i++ {
				b.Items = append(b.Items, m.hotReq())
			}
			out = append(out, mixReq{kind: kindBatch, batch: b})
		case x < permilleBatch+permilleRandom:
			req := m.randPool[m.nextRand%len(m.randPool)]
			m.nextRand++
			out = append(out, mixReq{kind: kindRandom, single: &req})
		default:
			req := m.hotReq()
			out = append(out, mixReq{kind: kindHot, single: &req})
		}
	}
	return out
}

// reply is what one request returned: the served cycles per item, or an
// error.
type reply struct {
	cycles []float64
	err    error
}

// mixServer is one running server with its client.
type mixServer struct {
	client    *flexclclient.Client
	transport *http.Transport
	base      string
	cancel    context.CancelFunc
	done      chan error
}

func startServer() (*mixServer, error) {
	srv := serve.New(serve.Config{
		Addr:   "127.0.0.1:0",
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	addr, err := srv.Listen()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ms := &mixServer{base: "http://" + addr.String(), cancel: cancel, done: make(chan error, 1)}
	go func() { ms.done <- srv.Serve(ctx) }()
	// One kept-alive connection per caller.
	ms.transport = &http.Transport{MaxIdleConnsPerHost: runtime.GOMAXPROCS(0)}
	ms.client = flexclclient.New(ms.base, &http.Client{Transport: ms.transport})
	return ms, nil
}

// stop drains the server and waits for Serve to return.
func (ms *mixServer) stop() error {
	ms.cancel()
	err := <-ms.done
	ms.transport.CloseIdleConnections()
	return err
}

// send runs reqs through nproc closed-loop callers (each waits for its
// reply before taking the next request) and returns per-request
// latencies in ms and replies, by request index. With tracers, one per
// caller, every request is an op of its caller's tracer with a
// flexclclient span around the client call.
func (ms *mixServer) send(reqs []mixReq, tracers []*tracer) ([]float64, []reply) {
	lat := make([]float64, len(reqs))
	reps := make([]reply, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		var t *tracer
		if tracers != nil {
			t = tracers[c]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				t.beginOp(i)
				t.call("flexclclient", func() { reps[i] = ms.do(reqs[i]) })
				t.endOp()
				lat[i] = float64(time.Since(t0)) / 1e6
			}
		}()
	}
	wg.Wait()
	return lat, reps
}

// do sends one request of the stream.
func (ms *mixServer) do(q mixReq) reply {
	ctx := context.Background()
	if q.single != nil {
		res, err := ms.client.Predict(ctx, *q.single)
		if err != nil {
			return reply{err: err}
		}
		return reply{cycles: []float64{res.Cycles}}
	}
	res, err := ms.client.PredictBatch(ctx, *q.batch)
	if err != nil {
		return reply{err: err}
	}
	var rep reply
	for _, it := range res.Items {
		if !it.OK {
			return reply{err: fmt.Errorf("batch item: %v", it.Error)}
		}
		rep.cycles = append(rep.cycles, it.Result.Cycles)
	}
	return rep
}

// refModel answers the direct model.Analysis.Predict for any request
// the stream sends, through the benchmark's own prep cache.
type refModel struct {
	cache *dse.PrepCache
	memo  map[string]float64
}

func (rm *refModel) cycles(req api.PredictRequest) (float64, error) {
	res, apiErr := api.ResolvePredict(req, api.V2)
	if apiErr != nil {
		return 0, apiErr
	}
	key := res.K.CacheKey() + "|" + res.D.String()
	if v, ok := rm.memo[key]; ok {
		return v, nil
	}
	an, err := rm.cache.Analysis(res.K, res.P, res.D.WGSize)
	if err != nil {
		return 0, err
	}
	v := an.Predict(res.D).Cycles
	rm.memo[key] = v
	return v, nil
}

// checkBlock fails every request that did not answer 200 with the
// cycles a direct Predict gives.
func (r *run) checkBlock(rm *refModel, reqs []mixReq, reps []reply) {
	for i, q := range reqs {
		op := fmt.Sprintf("request %d", r.attempted+i)
		if reps[i].err != nil {
			r.fail(op, "%v", reps[i].err)
			continue
		}
		items := []api.PredictRequest{}
		if q.single != nil {
			items = append(items, *q.single)
		} else {
			items = q.batch.Items
		}
		if len(items) != len(reps[i].cycles) {
			r.fail(op, "%d items answered of %d", len(reps[i].cycles), len(items))
			continue
		}
		for j, it := range items {
			want, err := rm.cycles(it)
			if err != nil || want != reps[i].cycles[j] {
				r.fail(op, "served %v cycles, direct Predict %v (%v)", reps[i].cycles[j], want, err)
				break
			}
		}
	}
	r.op(len(reqs))
}

// serveMix: the default server on a loopback listener driven through
// pkg/flexclclient by nproc closed-loop callers.
func serveMix(r *run) error {
	var ms *mixServer
	var plan *mixPlan
	err := r.timeSetup(func() error {
		ms = nil
		var err error
		if plan, err = newMixPlan(r); err != nil {
			return err
		}
		if ms, err = startServer(); err != nil {
			return err
		}
		// Fill the pred cache with the hot keys and the prep cache with
		// their analyses, which the random designs reuse.
		reqs := make([]mixReq, len(plan.hot))
		for i := range plan.hot {
			reqs[i] = mixReq{single: &plan.hot[i]}
		}
		_, reps := ms.send(reqs, nil)
		for _, rep := range reps {
			if rep.err != nil {
				return fmt.Errorf("warm-up: %w", rep.err)
			}
		}
		return nil
	}, func() error {
		if ms == nil {
			return nil
		}
		return ms.stop()
	})
	if err == nil {
		rm := &refModel{cache: dse.NewPrepCache(), memo: map[string]float64{}}
		if r.trace {
			err = serveTraced(r, ms, plan, rm)
		} else {
			serveTimed(r, ms, plan, rm)
		}
		if err == nil {
			err = serveAccuracy(r, plan, rm)
		}
	}
	if ms != nil {
		if serr := ms.stop(); err == nil {
			err = serr
		}
	}
	return err
}

// serveTimed measures blocks for --seconds. pass_s is the median block
// time. op_p50_ms is the median of every request of the run's blocks
// pooled; op_tail_ms is the p75 of the pooled cold (inline) requests,
// fills and the requests that join them. Higher ranks do not hold still
// on a shared host: the cold requests' p90 falls in the gap between the
// two slowest fill classes, and the warm requests' p99 follows the
// host's CPU steal (NOTES.md), so it is printed and not reported.
func serveTimed(r *run, ms *mixServer, plan *mixPlan, rm *refModel) {
	var ps passStats
	var all []float64
	var byKind [nKinds][]float64
	for b := 0; r.more(ps.measured(), b); b++ {
		reqs := plan.block()
		var lat []float64
		var reps []reply
		ps.measure(func() any {
			lat, reps = ms.send(reqs, nil)
			return ms
		})
		all = append(all, lat...)
		for i, q := range reqs {
			byKind[q.kind] = append(byKind[q.kind], lat[i])
		}
		r.checkBlock(rm, reqs, reps)
	}
	ps.report(r)
	r.set("pass_s", "s", median(ps.wall))
	sort.Float64s(all)
	r.set("op_p50_ms", "ms", percentile(all, 50))
	var warm []float64
	for k, l := range byKind {
		sort.Float64s(l)
		fmt.Printf("# %-6s n=%-6d p50 %.3f ms  p90 %.3f ms  p99 %.3f ms  max %.3f ms\n",
			kindNames[k], len(l), percentile(l, 50), percentile(l, 90), percentile(l, 99), percentile(l, 100))
		if k != kindInline {
			warm = append(warm, l...)
		}
	}
	cold := byKind[kindInline]
	r.set("op_tail_ms", "ms", percentile(cold, coldTailPct))
	sort.Float64s(warm)
	fmt.Printf("# serve-mix: %d blocks of %d requests; op_p50_ms over %d requests; op_tail_ms = p%d of %d cold requests, %d beyond it; warm p99 %.3f ms\n",
		len(ps.wall), blockRequests, len(all), coldTailPct, len(cold), len(cold)-1-(len(cold)-1)*coldTailPct/100, percentile(warm, 99))
}

// serveTraced is serve-mix's traced run: pairs of blocks, one untraced
// and one traced in alternating order, until --seconds have passed. A
// traced block records an op per request with a flexclclient span
// around the client call. The first traced block is also bracketed by
// scrapes of the server's /metrics, which split the client time into
// the server's layers.
func serveTraced(r *run, ms *mixServer, plan *mixPlan, rm *refModel) error {
	var untracedS, tracedS []float64
	started := time.Now()
	for pair := 0; r.more(time.Since(started).Seconds(), pair); pair++ {
		for half := 0; half < 2; half++ {
			traced := (pair+half)%2 == 1
			first := traced && len(tracedS) == 0
			reqs := plan.block()
			var tracers []*tracer
			if traced {
				tracers = make([]*tracer, runtime.GOMAXPROCS(0))
				for c := range tracers {
					tracers[c] = newTracer()
				}
			}
			var before metricsText
			var gc *gcWindow
			if first {
				var err error
				if before, err = scrape(ms.base); err != nil {
					return err
				}
				gc = startGC()
			}
			t0 := time.Now()
			_, reps := ms.send(reqs, tracers)
			wall := time.Since(t0).Seconds()
			if traced {
				tracedS = append(tracedS, wall)
			} else {
				untracedS = append(untracedS, wall)
			}
			if first {
				var g gcStats
				gc.stop(&g)
				g.report(r)
				after, err := scrapeAfter(ms.base, before, len(reqs))
				if err != nil {
					return err
				}
				reportServeLayers(r, before, after, tracers, reps)
			}
			r.checkBlock(rm, reqs, reps)
		}
	}
	reportTracing(r, untracedS, tracedS)
	return nil
}

// serveAccuracy measures accuracy on the hot keys; their served cycles
// equal the direct prediction, which every block checked.
func serveAccuracy(r *run, plan *mixPlan, rm *refModel) error {
	var samples []sample
	for _, req := range plan.hot {
		res, apiErr := api.ResolvePredict(req, api.V2)
		if apiErr != nil {
			return apiErr
		}
		an, err := rm.cache.Analysis(res.K, res.P, res.D.WGSize)
		if err != nil {
			return err
		}
		samples = append(samples, sample{k: res.K, an: an, d: res.D, est: an.Predict(res.D).Cycles})
	}
	var t *tracer
	if r.trace {
		t = newTracer()
	}
	r.accuracy(t, samples)
	if t != nil {
		layers, _ := aggregate(t)
		for _, name := range []string{"rtlsim", "baseline"} {
			r.set(name+".calls", "count", float64(layers[name].calls))
			r.set(name+".self_ms", "ms", float64(layers[name].self)/1e6)
		}
	}
	return nil
}

// percentile returns the p-th percentile of sorted values (nearest rank
// below).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(float64(len(sorted)-1)*p/100)]
}

// metricsText is one scrape of the server's /metrics: sample name with
// labels → value.
type metricsText map[string]float64

func scrape(base string) (metricsText, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := metricsText{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scrapeAfter scrapes until the server has counted every request of
// the block: its request metrics are recorded after the response is
// written, so the client can see the last reply first.
func scrapeAfter(base string, before metricsText, n int) (metricsText, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		after, err := scrape(base)
		if err != nil {
			return nil, err
		}
		got := int(after.sum("flexcl_requests_total", `route="/v2/predict`) - before.sum("flexcl_requests_total", `route="/v2/predict`))
		if got >= n || time.Now().After(deadline) {
			return after, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// sum adds every sample of metric name whose labels contain sub.
func (m metricsText) sum(name, sub string) float64 {
	var s float64
	for k, v := range m {
		rest, ok := strings.CutPrefix(k, name)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		if strings.Contains(rest, sub) {
			s += v
		}
	}
	return s
}

// reportServeLayers sets serve-mix's per-layer metrics from the
// traced block's client spans and the server's /metrics around it.
// Server-side layer times are the server's own stage histograms
// (compile = irgen, profile = interp, memtrace = trace, devprofile =
// device and DRAM together). The requests' op time splits exactly into
// those stages, the rest of the server's time (serve.self_ms), the
// client calls' time outside the server — encode/decode and the
// loopback HTTP exchange (flexclclient.self_ms) — and the op time
// outside the client calls (other.self_ms).
func reportServeLayers(r *run, before, after metricsText, tracers []*tracer, reps []reply) {
	d := func(name, sub string) float64 { return after.sum(name, sub) - before.sum(name, sub) }
	layers, total := aggregate(tracers...)
	toMS := func(d time.Duration) float64 { return float64(d) / 1e6 }
	n := float64(len(reps))
	client := toMS(layers["flexclclient"].self)
	var errs int
	for _, rep := range reps {
		if rep.err != nil {
			errs++
		}
	}
	server := d("flexcl_request_seconds_sum", `route="/v2/predict`) * 1e3
	stages := 0.0
	for layer, stage := range map[string]string{"irgen": "compile", "interp": "profile", "trace": "memtrace", "device": "devprofile", "model": "model"} {
		ms := d("flexcl_stage_seconds_sum", `stage="`+stage+`"`) * 1e3
		stages += ms
		r.set(layer+".self_ms", "ms", ms)
		if layer != "device" {
			r.set(layer+".calls", "count", d("flexcl_stage_seconds_count", `stage="`+stage+`"`))
		}
	}
	if calls := d("flexcl_stage_seconds_count", `stage="model"`); calls > 0 {
		r.set("model.us_per_call", "us", d("flexcl_stage_seconds_sum", `stage="model"`)*1e6/calls)
	}
	r.set("serve.requests", "count", d("flexcl_requests_total", `route="/v2/predict`))
	r.set("serve.server_ms", "ms", server/n)
	r.set("serve.queue_wait_ms", "ms", d("flexcl_predict_queue_wait_seconds_sum", "")*1e3/n)
	r.set("serve.shed", "count", d("flexcl_predict_shed_total", ""))
	hits, misses := d("flexcl_predict_cache_hits", ""), d("flexcl_predict_cache_misses", "")
	if hits+misses > 0 {
		r.set("serve.pred_hit_ratio", "ratio", hits/(hits+misses))
	}
	r.set("serve.edge_ms", "ms", (client-server)/n)
	r.set("serve.self_ms", "ms", server-stages)
	r.set("flexclclient.rtt_ms", "ms", client/n)
	r.set("flexclclient.self_ms", "ms", client-server)
	r.set("flexclclient.errors", "count", float64(errs))
	r.set("dse.prep_computes", "count", d("flexcl_prep_cache_computes", ""))
	r.set("dse.prep_coalesced", "count", d("flexcl_prep_cache_coalesced", ""))
	r.set("op.count", "count", n)
	r.set("op.traced_ms", "ms", toMS(total))
	r.set("other.self_ms", "ms", toMS(layers["op"].self))
}
