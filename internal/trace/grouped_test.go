package trace

import (
	"slices"
	"testing"

	"repro/internal/device"
	"repro/internal/interp"
)

func TestWGBurstsColumnMajor(t *testing.T) {
	// Work-item i reads a[i] then a[64+i]. In program order no two
	// consecutive accesses are contiguous (32 bursts); in pipeline issue
	// order the first accesses of all 16 work-items form one 64-byte run
	// and the second ones another: 2 bursts.
	k := compileKernel(t, `__kernel void k(__global float* a) { a[0] = 1.0f; }`, "k")
	p := device.Virtex7().DRAM
	l := NewLayout(k, map[string]int64{"a": 1024}, p)
	prm := k.GlobalParams()[0]
	traces := make([][]interp.Access, 16)
	for wi := range traces {
		traces[wi] = []interp.Access{
			{Param: prm, Index: int64(wi), Bytes: 4},
			{Param: prm, Index: int64(64 + wi), Bytes: 4},
		}
	}
	groups := WGBursts(traces, 16, l, 64)
	want := []Burst{{Addr: 0}, {Addr: 256}}
	if len(groups) != 1 || !slices.Equal(groups[0], want) {
		t.Fatalf("bursts = %v, want one group %v", groups, want)
	}
}

func TestGroupedCoalescingAcrossWorkItems(t *testing.T) {
	// 16 work-items each reading one consecutive float: within-WI
	// coalescing sees 16 separate bursts, column-major group coalescing
	// sees one.
	k := compileKernel(t, `__kernel void k(__global float* a) { a[0] = 1.0f; }`, "k")
	p := device.Virtex7().DRAM
	l := NewLayout(k, map[string]int64{"a": 1024}, p)
	prm := k.GlobalParams()[0]
	traces := make([][]interp.Access, 16)
	for wi := range traces {
		traces[wi] = []interp.Access{{Param: prm, Index: int64(wi), Bytes: 4}}
	}
	perWI := ClassifyGrouped(traces, 1, l, p, 64)
	grouped := ClassifyGrouped(traces, 16, l, p, 64)
	if perWI.BurstsPerWI != 1 {
		t.Errorf("per-WI coalescing: %v bursts/WI, want 1", perWI.BurstsPerWI)
	}
	if grouped.BurstsPerWI != 1.0/16 {
		t.Errorf("grouped coalescing: %v bursts/WI, want 1/16 (f = 16)", grouped.BurstsPerWI)
	}
}

func TestWGBurstsGrouping(t *testing.T) {
	k := compileKernel(t, `__kernel void k(__global float* a) { a[0] = 1.0f; }`, "k")
	p := device.Virtex7().DRAM
	l := NewLayout(k, map[string]int64{"a": 4096}, p)
	prm := k.GlobalParams()[0]
	traces := make([][]interp.Access, 32)
	for wi := range traces {
		traces[wi] = []interp.Access{{Param: prm, Index: int64(wi), Bytes: 4}}
	}
	groups := WGBursts(traces, 16, l, 64)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	for gi, bursts := range groups {
		if len(bursts) != 1 {
			t.Errorf("group %d: %d bursts, want 1", gi, len(bursts))
		}
	}
}

func TestGroupedPatternCountsSumToBursts(t *testing.T) {
	k := compileKernel(t, `__kernel void k(__global float* a) { a[0] = 1.0f; }`, "k")
	p := device.Virtex7().DRAM
	l := NewLayout(k, map[string]int64{"a": 65536}, p)
	prm := k.GlobalParams()[0]
	traces := make([][]interp.Access, 64)
	for wi := range traces {
		traces[wi] = []interp.Access{
			{Param: prm, Index: int64(wi * 137 % 4096), Bytes: 4},
			{Param: prm, Index: int64(wi), Bytes: 4, Write: true},
		}
	}
	c := ClassifyGrouped(traces, 64, l, p, 64)
	var total float64
	for _, n := range c.N {
		total += n
	}
	if diff := total - c.BurstsPerWI; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("pattern sum %v != bursts %v", total, c.BurstsPerWI)
	}
	if c.Reads+c.Writes != c.BurstsPerWI {
		t.Errorf("reads+writes (%v) != bursts (%v)", c.Reads+c.Writes, c.BurstsPerWI)
	}
}

func TestStreamRestartsAtOrdinalZero(t *testing.T) {
	k := compileKernel(t, `__kernel void k(__global float* a) { a[0] = 1.0f; }`, "k")
	p := device.Virtex7().DRAM
	l := NewLayout(k, map[string]int64{"a": 65536}, p)
	prm := k.GlobalParams()[0]
	group := func(first int64, write bool) [][]interp.Access {
		wis := make([][]interp.Access, 16)
		for wi := range wis {
			wis[wi] = []interp.Access{{Param: prm, Index: first + int64(wi)*64, Bytes: 4, Write: write}}
		}
		return wis
	}
	// An earlier run streams two groups of writes to rows far from the
	// one group of reads the rerun streams.
	earlier := [][][]interp.Access{group(8192, true), group(8200, true)}
	rerun := group(0, false)

	fresh := NewStream(l, p, 64)
	fresh.Group(0, rerun)
	want := fresh.Classified()

	restarted := NewStream(l, p, 64)
	for ord, wis := range earlier {
		restarted.Group(ord, wis)
	}
	restarted.Group(0, rerun)
	if d := restarted.Classified().Diff(want); d != "" {
		t.Errorf("restarted stream != fresh stream: %s", d)
	}

	// The carried state is observable: appending the rerun instead of
	// restarting changes the result.
	appended := NewStream(l, p, 64)
	for ord, wis := range earlier {
		appended.Group(ord, wis)
	}
	appended.Group(len(earlier), rerun)
	if appended.Classified().Diff(want) == "" {
		t.Error("appending a group classified like a fresh stream: the test cannot see a missed restart")
	}
}
