package serve

import (
	"bytes"
	"net/http"
	"testing"

	"repro/internal/bench"
)

// warmCorpus is the deterministic stride-6 kernel subset (10 of the 60
// bundled kernels, spanning Rodinia and PolyBench) that flexcl-check
// -smoke also uses.
func warmCorpus() []*bench.Kernel {
	var out []*bench.Kernel
	for i, k := range bench.All() {
		if i%6 == 0 {
			out = append(out, k)
		}
	}
	return out
}

// predictCorpus runs one /v2/predict per corpus kernel (first WG size
// each) and returns the raw response bodies keyed by kernel id.
func predictCorpus(t *testing.T, baseURL string, ks []*bench.Kernel) map[string][]byte {
	t.Helper()
	bodies := make(map[string][]byte, len(ks))
	for _, k := range ks {
		req := map[string]any{
			"kernel": map[string]any{"id": k.ID()},
			"design": map[string]any{"wg_size": k.WGSizes()[0]},
		}
		resp, body := postJSON(t, baseURL+"/v2/predict", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: predict status %d: %s", k.ID(), resp.StatusCode, body)
		}
		bodies[k.ID()] = body
	}
	return bodies
}

// TestWarmRestartArtifact is the warm-restart acceptance proof: a server
// started against an artifact directory populated by a previous
// instance serves the corpus with ZERO compile+analyze computes — every
// prep fill restored from disk — and returns byte-identical prediction
// bodies.
func TestWarmRestartArtifact(t *testing.T) {
	dir := t.TempDir()
	ks := warmCorpus()
	if len(ks) == 0 {
		t.Fatal("empty corpus")
	}

	// Cold start: empty directory, every prediction pays the full
	// compile+analyze.
	cold, coldTS := newTestServer(t, Config{ArtifactDir: dir})
	coldBodies := predictCorpus(t, coldTS.URL, ks)
	coldStats := cold.prep.Stats()
	if coldStats.Computes != uint64(len(ks)) {
		t.Fatalf("cold computes = %d, want %d (one per kernel)", coldStats.Computes, len(ks))
	}
	if coldStats.DiskHits != 0 {
		t.Fatalf("cold disk hits = %d, want 0", coldStats.DiskHits)
	}
	// Let the trailing artifact writes land before the "restart".
	cold.prep.Flush()
	if cold.artifacts == nil {
		t.Fatal("server opened no artifact store despite ArtifactDir")
	}
	if got := cold.artifacts.Len(); got != len(ks) {
		t.Fatalf("store holds %d records after the cold run, want %d", got, len(ks))
	}

	// Warm restart: a fresh process (new Server, new caches) on the
	// populated directory.
	warm, warmTS := newTestServer(t, Config{ArtifactDir: dir})
	warmBodies := predictCorpus(t, warmTS.URL, ks)
	warmStats := warm.prep.Stats()
	if warmStats.Computes != 0 {
		t.Errorf("warm restart ran %d compile+analyze computes, want 0", warmStats.Computes)
	}
	if warmStats.DiskHits != uint64(len(ks)) {
		t.Errorf("warm disk hits = %d, want %d", warmStats.DiskHits, len(ks))
	}
	for _, k := range ks {
		if !bytes.Equal(coldBodies[k.ID()], warmBodies[k.ID()]) {
			t.Errorf("%s: warm body differs from cold\ncold: %s\nwarm: %s",
				k.ID(), coldBodies[k.ID()], warmBodies[k.ID()])
		}
	}

	// The artifact counters surface on /metrics for fleet dashboards.
	resp, err := http.Get(warmTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb bytes.Buffer
	if _, err := sb.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{
		"flexcl_artifact_hits", "flexcl_artifact_misses",
		"flexcl_prep_cache_disk_hits", "flexcl_prep_cache_evictions",
	} {
		if !bytes.Contains(sb.Bytes(), []byte(metric)) {
			t.Errorf("/metrics missing %s", metric)
		}
	}
}
