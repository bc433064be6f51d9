package serve

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// requestIDHeader is the correlation header: honored when the client
// sends a well-formed value, generated otherwise, always echoed on the
// response so clients can quote it (and fetch /debug/traces/{id}).
const requestIDHeader = "X-Request-ID"

// reqSeq + reqPrefix make generated ids unique within and across
// processes: a per-process random prefix plus an atomic counter.
var (
	reqSeq    atomic.Uint64
	reqPrefix = func() string {
		var b [4]byte
		rand.Read(b[:])
		return hex.EncodeToString(b[:])
	}()
)

func newRequestID() string {
	return fmt.Sprintf("req-%s-%d", reqPrefix, reqSeq.Add(1))
}

// validRequestID accepts client-supplied ids conservatively: short and
// from a charset that is safe in logs, headers and URL path segments.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// untraced lists the paths whose requests get a request id but no trace:
// scrapes and probes would otherwise rotate real traffic out of the
// ring, and tracing the trace API is just noise.
func untraced(path string) bool {
	return path == "/metrics" || path == "/healthz" || strings.HasPrefix(path, "/debug/")
}

// edge assigns every request its id (honoring a well-formed client
// X-Request-ID), labels it with its route, opens the request-scoped
// root span that the rest of the pipeline hangs its stage spans off,
// and records the request counter and latency histogram. The finished
// trace lands in the tracer's ring, retrievable as /debug/traces/{id}
// by the same id the response header and the access log carry.
func (s *Server) edge(mux *http.ServeMux, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		if !validRequestID(id) {
			id = newRequestID()
		}
		w.Header().Set(requestIDHeader, id)
		obs.AddField(r.Context(), "request_id", id)
		rt := route(mux, r)
		rec := obs.NewResponseRecorder(w)
		if !untraced(r.URL.Path) {
			ctx, root := s.tracer.StartTrace(r.Context(), id, r.Method+" "+rt)
			if root != nil { // nil when tracing is disabled
				defer func() {
					root.Annotate("status", fmt.Sprint(rec.Code))
					root.End()
				}()
				r = r.WithContext(ctx)
			}
		}
		t0 := time.Now()
		next.ServeHTTP(rec, r)
		s.reg.Counter("requests_total",
			fmt.Sprintf(`route="%s",code="%d"`, rt, rec.Code)).Inc()
		s.reg.Histogram("request_seconds", fmt.Sprintf(`route="%s"`, rt)).
			Observe(time.Since(t0).Seconds())
	})
}
