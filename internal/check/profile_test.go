package check

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bench"
)

func TestProfileComparatorCleanOnConsistentAudit(t *testing.T) {
	fs, checks := profileKernelFindings(profileAudit{
		kernel: "gen/vecadd", analyzable: true,
	})
	if len(fs) != 0 {
		t.Fatalf("clean audit produced findings: %v", fs)
	}
	if checks == 0 {
		t.Fatal("no checks counted")
	}
	// A clean fallback kernel is also finding-free.
	fs, _ = profileKernelFindings(profileAudit{
		kernel: "gen/datadep", analyzable: false, reason: "address depends on written buffer",
	})
	if len(fs) != 0 {
		t.Fatalf("clean fallback audit produced findings: %v", fs)
	}
}

func TestProfileComparatorCatchesMismatches(t *testing.T) {
	cases := []struct {
		name  string
		audit profileAudit
		check string
	}{
		{
			"prefix-diff",
			profileAudit{kernel: "k", analyzable: true, prefixDiff: "BlockCounts[b2]: 3 != 4"},
			"static-equals-interp",
		},
		{
			"spread-diff",
			profileAudit{kernel: "k", analyzable: true, spreadDiff: "WorkItems: 64 != 32"},
			"static-equals-interp",
		},
		{
			"error-mismatch",
			profileAudit{kernel: "k", analyzable: true, staticErr: "interp: load out of bounds", interpErr: ""},
			"error-match",
		},
		{
			"stream-mismatch",
			profileAudit{kernel: "k", analyzable: false, reason: "r", streamDiff: "Mem: N[RAR/miss] 0.25 vs 0.5"},
			"stream-equals-materialized",
		},
		{
			"silent-decline",
			profileAudit{kernel: "k", analyzable: false},
			"decline-reason",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs, _ := profileKernelFindings(c.audit)
			if len(fs) == 0 {
				t.Fatal("mismatch not detected")
			}
			var hit bool
			for _, f := range fs {
				if f.Family != FamilyProfile {
					t.Errorf("family = %q, want %q", f.Family, FamilyProfile)
				}
				if f.Check == c.check {
					hit = true
				}
			}
			if !hit {
				t.Errorf("findings %v missing check %q", fs, c.check)
			}
		})
	}
}

// TestProfileFamilyOnKernels runs the real family end to end on two
// bundled kernels and the generated fallback family: no findings.
func TestProfileFamilyOnKernels(t *testing.T) {
	var kernels []*bench.Kernel
	for _, id := range []string{"hotspot/hotspot", "2mm/mm2"} {
		k := bench.FindID(id)
		if k == nil {
			t.Fatalf("kernel %s not bundled", id)
		}
		kernels = append(kernels, k)
	}
	fs, checks, err := ProfileFindings(context.Background(), kernels, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("profile family findings on clean corpus: %v", fs)
	}
	// Two bundled + the generated corpus, several checks each, plus the
	// corpus-wide coverage check.
	want := 2 + len(bench.GeneratedCorpus())
	if checks < want {
		t.Errorf("checks = %d, want at least %d", checks, want)
	}
}

func TestProfileFamilyWiredIntoRun(t *testing.T) {
	var found bool
	for _, f := range (Options{}).families() {
		if f == FamilyProfile {
			found = true
		}
	}
	if !found {
		t.Error("profile family missing from the default family list")
	}
	// Unknown families must still be rejected by Run.
	if _, err := Run(context.Background(), Options{Families: []string{"profil"}}); err == nil ||
		!strings.Contains(err.Error(), "unknown family") {
		t.Errorf("Run accepted a misspelled family: %v", err)
	}
}
