// Package api defines the wire surface of the flexcl-serve HTTP
// service: the unified v2 request envelope (one kernel reference shape,
// one Design struct shared by predict, explore and batch), the response
// DTOs both API versions render, and the typed error model.
//
// The v1 endpoints are thin adapters over these same types — their
// request shapes are decoded in package serve and converted to the v2
// envelope before resolution, and their responses reuse the structs
// here, so the two versions cannot drift apart.
package api

import (
	"fmt"
	"time"
)

// Design is the wire form of a model.Design, shared by every endpoint
// (predict, explore results, batch items). Zero values mean "the
// unoptimized choice": first work-group size of the kernel's sweep,
// no pipelining, one PE, one CU, barrier mode.
type Design struct {
	WGSize     int64  `json:"wg_size"`
	WIPipeline bool   `json:"wi_pipeline"`
	PE         int    `json:"pe"`
	CU         int    `json:"cu"`
	Mode       string `json:"mode"` // "barrier" | "pipeline"
}

// KernelRef references a kernel one of three ways:
//
//   - by corpus id: {"id": "bench/kernel"}
//   - by corpus coordinates: {"bench": "...", "kernel": "..."}
//   - inline: {"source": "__kernel void f(...){...}", "fn": "f",
//     "global": [4096], ...}
//
// Exactly one of the three shapes must be used. Inline kernels carry
// their own workload definition: global is the NDRange global size (1–3
// dimensions), scalars binds every non-pointer kernel argument, and
// buffer arguments are synthesized automatically (deterministic fills,
// length = total work-items unless overridden via buf_lens).
type KernelRef struct {
	// Corpus reference.
	ID     string `json:"id,omitempty"`
	Bench  string `json:"bench,omitempty"`
	Kernel string `json:"kernel,omitempty"`

	// Inline kernel.
	Source  string            `json:"source,omitempty"`
	Fn      string            `json:"fn,omitempty"`
	Defines map[string]string `json:"defines,omitempty"`
	Global  []int64           `json:"global,omitempty"`
	TwoD    bool              `json:"two_d,omitempty"`
	Scalars map[string]int64  `json:"scalars,omitempty"`
	MinWG   int64             `json:"min_wg,omitempty"`
	MaxWG   int64             `json:"max_wg,omitempty"`
	BufLens map[string]int64  `json:"buf_lens,omitempty"`
}

// IsInline reports whether the reference carries inline source.
func (r KernelRef) IsInline() bool { return r.Source != "" }

// PredictRequest is one prediction: a kernel, a platform (default
// virtex7) and a design point. It is also the batch item shape.
type PredictRequest struct {
	Kernel   KernelRef `json:"kernel"`
	Platform string    `json:"platform,omitempty"`
	Design   Design    `json:"design"`
}

// PredictResult is one prediction outcome.
type PredictResult struct {
	Kernel        string  `json:"kernel"` // "bench/kernel" (inline: "inline/<fn>")
	SourceHash    string  `json:"source_hash"`
	Platform      string  `json:"platform"`
	Design        Design  `json:"design"`
	EffectiveMode string  `json:"effective_mode"`
	Cycles        float64 `json:"cycles"`
	Seconds       float64 `json:"seconds"`
	IIComp        int     `json:"ii_comp"`
	Depth         int     `json:"pipeline_depth"`
	NPE           int     `json:"n_pe"`
	NCU           int     `json:"n_cu"`
	// Cache reports how the answer was produced: "pred" (prediction LRU
	// hit), "prep" (analysis already prepared), "coalesced" (joined an
	// in-flight fill for the same kernel) or "miss" (this request led the
	// compile+analyze).
	Cache string `json:"cache"`
}

// BatchPredictRequest is POST /v2/predict:batch: N independent
// (kernel, design) pairs evaluated with per-item results. Platform, when
// set, is the default for items that leave theirs empty.
type BatchPredictRequest struct {
	Platform string           `json:"platform,omitempty"`
	Items    []PredictRequest `json:"items"`
}

// BatchItem is one per-item outcome of a batch prediction; exactly one
// of Result and Error is set.
type BatchItem struct {
	OK     bool           `json:"ok"`
	Result *PredictResult `json:"result,omitempty"`
	Error  *Error         `json:"error,omitempty"`
}

// BatchPredictResponse reports per-item outcomes in request order.
// Item failures do not fail the batch: the response is 200 as long as
// the envelope itself was acceptable.
type BatchPredictResponse struct {
	Items     []BatchItem `json:"items"`
	Succeeded int         `json:"succeeded"`
	Failed    int         `json:"failed"`
}

// Search strategies accepted by ExploreRequest.Search.
const (
	SearchExhaustive = "exhaustive"
	SearchGuided     = "guided"
	SearchPareto     = "pareto"
)

// ExploreRequest is a design-space exploration job submission.
type ExploreRequest struct {
	Kernel       KernelRef `json:"kernel"`
	Platform     string    `json:"platform,omitempty"`
	Prune        bool      `json:"prune_infeasible,omitempty"`
	Sim          bool      `json:"sim,omitempty"`
	SimMaxGroups int       `json:"sim_max_groups,omitempty"`
	Workers      int       `json:"workers,omitempty"`
	Top          int       `json:"top,omitempty"`
	// Search selects the exploration strategy: "" or "exhaustive"
	// evaluates every design point; "guided" runs the branch-and-bound
	// search (same best design, a fraction of the evaluations; model
	// only, so it rejects sim); "pareto" additionally reports the
	// cycles-vs-resource Pareto frontier. v2 only.
	Search string `json:"search,omitempty"`
}

// JobAccepted is the 202 response to an exploration submission.
// (Field order matches the alphabetical key order the v1 endpoint has
// always rendered, keeping v1 responses byte-identical.)
type JobAccepted struct {
	ID     string `json:"id"`
	Kernel string `json:"kernel"`
	State  string `json:"state"`
	URL    string `json:"url"`
}

// Point is one evaluated design point of an exploration summary.
type Point struct {
	Design Design  `json:"design"`
	Est    float64 `json:"est_cycles"`
	Actual float64 `json:"actual_cycles,omitempty"`
}

// ExploreSummary is the result payload of a finished exploration job.
// The guided-search fields (Search, SpacePoints, Evaluated, Pruned,
// Frontier) are omitted on exhaustive explorations, keeping v1 response
// bodies byte-identical to before the strategies existed.
type ExploreSummary struct {
	Points           int     `json:"points"`
	BaselineFailures int     `json:"baseline_failures,omitempty"`
	WallMS           float64 `json:"wall_ms"`
	ModelMS          float64 `json:"model_ms"`
	SimMS            float64 `json:"sim_ms,omitempty"`
	Best             *Point  `json:"best,omitempty"`
	Top              []Point `json:"top,omitempty"`
	Search           string  `json:"search,omitempty"`
	SpacePoints      int     `json:"space_points,omitempty"`
	Evaluated        int     `json:"evaluated,omitempty"`
	Pruned           int     `json:"pruned,omitempty"`
	Frontier         []Point `json:"frontier,omitempty"`
}

// Job states.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// JobView is the poll response for one exploration job.
type JobView struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Kernel   string          `json:"kernel"`
	Platform string          `json:"platform"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started,omitempty"`
	Finished *time.Time      `json:"finished,omitempty"`
	Error    string          `json:"error,omitempty"`
	Summary  *ExploreSummary `json:"summary,omitempty"`
}

// KernelInfo describes one corpus kernel in listings.
type KernelInfo struct {
	ID           string  `json:"id"`
	Suite        string  `json:"suite"`
	Bench        string  `json:"bench"`
	Kernel       string  `json:"kernel"`
	WorkItems    int64   `json:"work_items"`
	WGSizes      []int64 `json:"wg_sizes"`
	DesignPoints int     `json:"design_points"`
}

// KernelList is the kernels listing. (Field order matches the
// alphabetical key order the v1 endpoint has always rendered.)
type KernelList struct {
	Count   int          `json:"count"`
	Kernels []KernelInfo `json:"kernels"`
}

// ---- error model ----

// Error codes.
const (
	CodeBadRequest  = "bad_request" // 400: malformed body or invalid field
	CodeNotFound    = "not_found"   // 404: unknown kernel or job
	CodeShed        = "shed"        // 429: admission queue full, retry later
	CodeUnavailable = "unavailable" // 503: draining or job queue full
	CodeDeadline    = "deadline"    // 504: request deadline expired
	CodeInternal    = "internal"    // 500: analysis failure
)

// Error is the typed wire error. v2 endpoints render it inside an
// {"error": {...}} envelope; v1 adapters flatten it to the legacy
// {"error": "message"} shape.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterSeconds is set on shed responses and mirrored in the
	// Retry-After header.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
	// Status is the HTTP status the error maps to (not serialized; the
	// transport already carries it).
	Status int `json:"-"`
}

// Error implements the error interface.
func (e *Error) Error() string { return e.Code + ": " + e.Message }

// Errf builds an Error from a code, status and format string.
func Errf(code string, status int, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...), Status: status}
}
