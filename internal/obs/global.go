package obs

import (
	"runtime"
	"runtime/debug"
	"sync"
)

// Version is the release version stamped into the build_info metric.
// Overridable at link time:
//
//	go build -ldflags "-X repro/internal/obs.Version=v1.2.3" ./...
//
// When left as "dev", Global falls back to the VCS revision from the
// embedded build info when one is available.
var Version = "dev"

var (
	globalOnce sync.Once
	globalReg  *Registry
)

// Global returns the process-wide registry for metrics that belong to
// the process rather than to one server instance (e.g. the profiler
// fast-path counters bumped deep inside internal/interp, far from any
// Server). internal/serve renders it on /metrics alongside each
// server's own registry.
func Global() *Registry {
	globalOnce.Do(func() {
		globalReg = NewRegistry("flexcl_global")
		// Register the counters eagerly so they render as 0 on /metrics
		// before the first profile rather than appear out of nowhere
		// later.
		globalReg.Counter("profile_static_total", "")
		globalReg.Help("profile_static_total",
			"Kernel profiles produced by the static fast path (no work-group execution).")
		globalReg.Counter("profile_interp_total", "")
		globalReg.Help("profile_interp_total",
			"Kernel profiles produced by the sequential interpreter.")
		// build_info is the standard replica-identification gauge:
		// constant 1, identity in the labels, so a scraper can tell
		// replicas (and rollout generations) apart.
		globalReg.Gauge("build_info", Labels(
			Label("version", buildVersion()),
			Label("goversion", runtime.Version()),
		)).Set(1)
		globalReg.Help("build_info",
			"Constant 1; build identity (release version, Go toolchain) in the labels.")
	})
	return globalReg
}

// buildVersion resolves the version label: the linker-stamped Version
// when set, else the module version or VCS revision from the embedded
// build info, else "dev".
func buildVersion() string {
	if Version != "dev" {
		return Version
	}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return Version
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		return rev + dirty
	}
	return Version
}
