// Package device describes the FPGA platforms FlexCL targets: resource
// budgets (DSP slices, BRAM, local-memory ports), per-operation latency
// databases with multiple hardware implementation variants, and DRAM
// timing parameters.
//
// The paper obtains per-IR-operation latencies by micro-benchmark
// profiling on the board (§3.2); Profile reproduces that step by averaging
// over the implementation variants the synthesis tool may choose, which is
// exactly the error source the paper identifies in §4.2 ("SDAccel may have
// multiple hardware implementation choices with different execution
// latencies ... we address this problem by computing the average latency").
package device

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"repro/internal/ir"
	"repro/internal/opencl/ast"
)

// OpClass buckets IR operations into hardware IP-core classes with
// distinct latency/resource characteristics.
type OpClass int

// Operation classes.
const (
	ClassNop OpClass = iota
	ClassIAdd
	ClassIMul
	ClassIDiv
	ClassLogic // and/or/xor/shift/compare/select
	ClassFAdd
	ClassFMul
	ClassFDiv
	ClassFSqrt
	ClassFExp // exp/log/pow and other transcendental cores
	ClassFTrig
	ClassCast
	ClassLocalLoad
	ClassLocalStore
	ClassPrivLoad   // register-file access
	ClassPrivStore  // register-file access
	ClassGlobalLoad // interface issue latency; DRAM time is in the memory model
	ClassGlobalStore
	ClassAtomic
	ClassWorkItem
	ClassVecShuffle
	ClassBarrierOp

	numClasses
)

var classNames = [...]string{
	ClassNop: "nop", ClassIAdd: "iadd", ClassIMul: "imul", ClassIDiv: "idiv",
	ClassLogic: "logic", ClassFAdd: "fadd", ClassFMul: "fmul",
	ClassFDiv: "fdiv", ClassFSqrt: "fsqrt", ClassFExp: "fexp",
	ClassFTrig: "ftrig", ClassCast: "cast",
	ClassLocalLoad: "local.load", ClassLocalStore: "local.store",
	ClassPrivLoad: "priv.load", ClassPrivStore: "priv.store",
	ClassGlobalLoad: "global.load", ClassGlobalStore: "global.store",
	ClassAtomic: "atomic", ClassWorkItem: "workitem",
	ClassVecShuffle: "vec.shuffle", ClassBarrierOp: "barrier",
}

func (c OpClass) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Classes returns all operation classes.
func Classes() []OpClass {
	out := make([]OpClass, 0, numClasses)
	for c := OpClass(0); c < numClasses; c++ {
		out = append(out, c)
	}
	return out
}

// Classify maps an IR instruction to its operation class.
func Classify(in *ir.Instr) OpClass {
	switch in.Op {
	case ir.OpAdd, ir.OpSub:
		return ClassIAdd
	case ir.OpMul:
		return ClassIMul
	case ir.OpDiv, ir.OpRem:
		return ClassIDiv
	case ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr,
		ir.OpICmp, ir.OpSelect:
		return ClassLogic
	case ir.OpFAdd, ir.OpFSub:
		return ClassFAdd
	case ir.OpFMul:
		return ClassFMul
	case ir.OpFDiv:
		return ClassFDiv
	case ir.OpFCmp:
		return ClassLogic
	case ir.OpCast:
		return ClassCast
	case ir.OpCall:
		switch in.Fn {
		case "sqrt", "rsqrt", "native_sqrt", "hypot":
			return ClassFSqrt
		case "exp", "exp2", "log", "log2", "pow", "native_exp", "native_log":
			return ClassFExp
		case "sin", "cos", "tan", "atan2":
			return ClassFTrig
		case "fabs", "floor", "ceil", "round", "fmax", "fmin", "max", "min",
			"clamp", "select", "abs":
			return ClassLogic
		case "mad", "fma":
			return ClassFMul
		case "fmod":
			return ClassFDiv
		case "dot":
			return ClassFMul
		default:
			return ClassFAdd
		}
	case ir.OpLoad:
		switch in.Mem.Space() {
		case ast.ASGlobal, ast.ASConstant:
			return ClassGlobalLoad
		case ast.ASLocal:
			return ClassLocalLoad
		default:
			return ClassPrivLoad
		}
	case ir.OpStore:
		switch in.Mem.Space() {
		case ast.ASGlobal, ast.ASConstant:
			return ClassGlobalStore
		case ast.ASLocal:
			return ClassLocalStore
		default:
			return ClassPrivStore
		}
	case ir.OpAtomic:
		return ClassAtomic
	case ir.OpWorkItem:
		return ClassWorkItem
	case ir.OpVecBuild, ir.OpVecExtract, ir.OpVecInsert:
		return ClassVecShuffle
	case ir.OpBarrier:
		return ClassBarrierOp
	default:
		return ClassNop
	}
}

// OpInfo describes the hardware implementations available for one class.
type OpInfo struct {
	// Variants are the pipeline latencies (cycles) of the implementation
	// choices the synthesis tool may pick; selection is not exposed to
	// the programmer.
	Variants []int
	// DSP is the DSP-slice cost per scalar lane.
	DSP int
	// II is the initiation interval of the core itself (1 = fully
	// pipelined; integer dividers are typically not).
	II int
}

// DRAMParams parameterizes the off-chip memory model (§3.4): bank count,
// row-buffer geometry and the command timings that differentiate the eight
// access patterns of Table 1. All times are in kernel clock cycles.
type DRAMParams struct {
	Banks    int
	RowBytes int
	// BurstBytes is the data bus transfer granularity (the coalesced
	// memory access unit, 512 bit on SDAccel platforms).
	BurstBytes int
	TCL        int // read column access (row-buffer hit)
	TRCD       int // activate-to-access
	TRP        int // precharge
	TWR        int // write recovery
	TBus       int // data transfer per burst
	TurnRW     int // read-after-write turnaround penalty
	TurnWR     int // write-after-read turnaround penalty
}

// Platform is one FPGA board configuration.
type Platform struct {
	Name     string
	ClockMHz float64

	// Compute resources.
	DSPTotal    int
	BRAMTotalKb int

	// Local memory (per compute unit): banks × ports.
	LocalBanks        int
	PortsPerBankRead  int
	PortsPerBankWrite int

	// MemAccessUnitBits is the coalescing unit (§3.4).
	MemAccessUnitBits int

	// WGSchedOverhead is the work-group dispatch overhead ΔL_schedule
	// in cycles (Eq. 7–8).
	WGSchedOverhead int

	// MaxCU and MaxPE bound the design space on this part.
	MaxCU int
	MaxPE int

	DRAM DRAMParams

	ops map[OpClass]OpInfo
}

// OpInfo returns the implementation descriptor for a class.
func (p *Platform) OpInfo(c OpClass) OpInfo {
	if oi, ok := p.ops[c]; ok {
		return oi
	}
	return OpInfo{Variants: []int{1}, II: 1}
}

// LocalReadPorts returns the total local-memory read ports per CU.
func (p *Platform) LocalReadPorts() int { return p.LocalBanks * p.PortsPerBankRead }

// LocalWritePorts returns the total local-memory write ports per CU.
func (p *Platform) LocalWritePorts() int { return p.LocalBanks * p.PortsPerBankWrite }

// VariantFor deterministically selects the implementation variant the
// synthesis tool would choose for one op instance. The hash mixes kernel
// name, design-point id and instruction id so different designs of the
// same kernel can receive different implementations — the behaviour the
// paper identifies as a model error source.
func (p *Platform) VariantFor(c OpClass, hash uint64) int {
	oi := p.OpInfo(c)
	if len(oi.Variants) == 0 {
		return 1
	}
	return oi.Variants[hash%uint64(len(oi.Variants))]
}

// Mix64 is a split-mix style hash used for deterministic variant choice.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashString folds a string into a 64-bit seed.
func HashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Virtex7 returns the Alpha Data ADM-PCIE-7V3 configuration used for the
// paper's main experiments: Xilinx Virtex-7 XC7VX690T, 16 GB DDR3 with 8
// banks and 1 KB row buffers, kernels clocked at 200 MHz (§4.1).
func Virtex7() *Platform {
	return &Platform{
		Name:              "virtex7-xc7vx690t",
		ClockMHz:          200,
		DSPTotal:          3600,
		BRAMTotalKb:       52920,
		LocalBanks:        4,
		PortsPerBankRead:  2,
		PortsPerBankWrite: 1,
		MemAccessUnitBits: 512,
		WGSchedOverhead:   48,
		MaxCU:             4,
		MaxPE:             16,
		DRAM: DRAMParams{
			Banks:      8,
			RowBytes:   1024,
			BurstBytes: 64,
			TCL:        11,
			TRCD:       11,
			TRP:        11,
			TWR:        12,
			TBus:       4,
			TurnRW:     6,
			TurnWR:     8,
		},
		ops: map[OpClass]OpInfo{
			ClassNop:         {Variants: []int{0}, II: 1},
			ClassIAdd:        {Variants: []int{1}, II: 1},
			ClassIMul:        {Variants: []int{3, 4, 4}, DSP: 4, II: 1},
			ClassIDiv:        {Variants: []int{34, 36}, II: 2},
			ClassLogic:       {Variants: []int{1}, II: 1},
			ClassFAdd:        {Variants: []int{8, 11, 12}, DSP: 2, II: 1},
			ClassFMul:        {Variants: []int{6, 8}, DSP: 3, II: 1},
			ClassFDiv:        {Variants: []int{28, 30}, II: 1},
			ClassFSqrt:       {Variants: []int{28}, II: 1},
			ClassFExp:        {Variants: []int{20, 26}, DSP: 7, II: 1},
			ClassFTrig:       {Variants: []int{32, 40}, DSP: 9, II: 1},
			ClassCast:        {Variants: []int{4, 6}, II: 1},
			ClassLocalLoad:   {Variants: []int{2}, II: 1},
			ClassLocalStore:  {Variants: []int{1}, II: 1},
			ClassPrivLoad:    {Variants: []int{0}, II: 1},
			ClassPrivStore:   {Variants: []int{0}, II: 1},
			ClassGlobalLoad:  {Variants: []int{4}, II: 1},
			ClassGlobalStore: {Variants: []int{2}, II: 1},
			ClassAtomic:      {Variants: []int{12}, II: 2},
			ClassWorkItem:    {Variants: []int{0}, II: 1},
			ClassVecShuffle:  {Variants: []int{0}, II: 1},
			ClassBarrierOp:   {Variants: []int{2}, II: 1},
		},
	}
}

// KU060 returns the NAS-120A / Kintex UltraScale KU060 configuration used
// for the robustness experiment (§4.2). The UltraScale fabric clocks the
// same kernels slightly differently: deeper floating-point pipelines,
// DDR4-style memory timings, more DSPs.
func KU060() *Platform {
	return &Platform{
		Name:              "ultrascale-ku060",
		ClockMHz:          240,
		DSPTotal:          2760,
		BRAMTotalKb:       38000,
		LocalBanks:        4,
		PortsPerBankRead:  2,
		PortsPerBankWrite: 1,
		MemAccessUnitBits: 512,
		WGSchedOverhead:   40,
		MaxCU:             4,
		MaxPE:             16,
		DRAM: DRAMParams{
			Banks:      16,
			RowBytes:   1024,
			BurstBytes: 64,
			TCL:        14,
			TRCD:       14,
			TRP:        14,
			TWR:        15,
			TBus:       3,
			TurnRW:     7,
			TurnWR:     9,
		},
		ops: map[OpClass]OpInfo{
			ClassNop:         {Variants: []int{0}, II: 1},
			ClassIAdd:        {Variants: []int{1}, II: 1},
			ClassIMul:        {Variants: []int{3, 3, 4}, DSP: 3, II: 1},
			ClassIDiv:        {Variants: []int{36}, II: 2},
			ClassLogic:       {Variants: []int{1}, II: 1},
			ClassFAdd:        {Variants: []int{10, 12, 14}, DSP: 2, II: 1},
			ClassFMul:        {Variants: []int{7, 9}, DSP: 3, II: 1},
			ClassFDiv:        {Variants: []int{30, 33}, II: 1},
			ClassFSqrt:       {Variants: []int{30}, II: 1},
			ClassFExp:        {Variants: []int{22, 28}, DSP: 7, II: 1},
			ClassFTrig:       {Variants: []int{36, 44}, DSP: 9, II: 1},
			ClassCast:        {Variants: []int{5, 6}, II: 1},
			ClassLocalLoad:   {Variants: []int{2}, II: 1},
			ClassLocalStore:  {Variants: []int{1}, II: 1},
			ClassPrivLoad:    {Variants: []int{0}, II: 1},
			ClassPrivStore:   {Variants: []int{0}, II: 1},
			ClassGlobalLoad:  {Variants: []int{5}, II: 1},
			ClassGlobalStore: {Variants: []int{2}, II: 1},
			ClassAtomic:      {Variants: []int{14}, II: 2},
			ClassWorkItem:    {Variants: []int{0}, II: 1},
			ClassVecShuffle:  {Variants: []int{0}, II: 1},
			ClassBarrierOp:   {Variants: []int{2}, II: 1},
		},
	}
}

// AlveoU250 returns a modern Alveo U250-class data-center card: more of
// everything (DSPs, BRAM, DDR4 channels collapsed into one faster
// in-order port) and a 300 MHz kernel clock. Useful for studying how the
// model's conclusions shift on newer parts; not part of the paper's
// evaluation.
func AlveoU250() *Platform {
	return &Platform{
		Name:              "alveo-u250",
		ClockMHz:          300,
		DSPTotal:          12288,
		BRAMTotalKb:       98304,
		LocalBanks:        8,
		PortsPerBankRead:  2,
		PortsPerBankWrite: 1,
		MemAccessUnitBits: 512,
		WGSchedOverhead:   32,
		MaxCU:             8,
		MaxPE:             16,
		DRAM: DRAMParams{
			Banks:      16,
			RowBytes:   2048,
			BurstBytes: 64,
			TCL:        13,
			TRCD:       13,
			TRP:        13,
			TWR:        14,
			TBus:       2,
			TurnRW:     5,
			TurnWR:     7,
		},
		ops: map[OpClass]OpInfo{
			ClassNop:         {Variants: []int{0}, II: 1},
			ClassIAdd:        {Variants: []int{1}, II: 1},
			ClassIMul:        {Variants: []int{3, 3}, DSP: 3, II: 1},
			ClassIDiv:        {Variants: []int{32}, II: 2},
			ClassLogic:       {Variants: []int{1}, II: 1},
			ClassFAdd:        {Variants: []int{7, 9, 11}, DSP: 2, II: 1},
			ClassFMul:        {Variants: []int{5, 7}, DSP: 3, II: 1},
			ClassFDiv:        {Variants: []int{26, 28}, II: 1},
			ClassFSqrt:       {Variants: []int{26}, II: 1},
			ClassFExp:        {Variants: []int{18, 24}, DSP: 7, II: 1},
			ClassFTrig:       {Variants: []int{30, 38}, DSP: 9, II: 1},
			ClassCast:        {Variants: []int{3, 5}, II: 1},
			ClassLocalLoad:   {Variants: []int{2}, II: 1},
			ClassLocalStore:  {Variants: []int{1}, II: 1},
			ClassPrivLoad:    {Variants: []int{0}, II: 1},
			ClassPrivStore:   {Variants: []int{0}, II: 1},
			ClassGlobalLoad:  {Variants: []int{4}, II: 1},
			ClassGlobalStore: {Variants: []int{2}, II: 1},
			ClassAtomic:      {Variants: []int{10}, II: 2},
			ClassWorkItem:    {Variants: []int{0}, II: 1},
			ClassVecShuffle:  {Variants: []int{0}, II: 1},
			ClassBarrierOp:   {Variants: []int{2}, II: 1},
		},
	}
}

// catalogue holds the known platforms by name, built once per process.
// Its platforms are shared by every caller and read-only by contract;
// a caller that needs to modify one takes a fresh constructor value
// (Virtex7, KU060, AlveoU250) instead.
var catalogue = map[string]*Platform{
	"virtex7": Virtex7(),
	"ku060":   KU060(),
	"u250":    AlveoU250(),
}

// Lookup returns the catalogue platform named name ("virtex7", "ku060"
// or "u250"). Every call for one name returns the same platform, which
// callers must not modify.
func Lookup(name string) (*Platform, bool) {
	p, ok := catalogue[name]
	return p, ok
}

// PlatformNames returns the catalogue's names, sorted.
func PlatformNames() []string {
	names := make([]string, 0, len(catalogue))
	for n := range catalogue {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LatencyTable is a profiled average latency per operation class — the
// numbers FlexCL's analytical model consumes.
type LatencyTable struct {
	Avg [numClasses]float64
	DSP [numClasses]int
	II  [numClasses]int
}

// Latency returns the profiled average latency of a class.
func (t *LatencyTable) Latency(c OpClass) float64 { return t.Avg[c] }

// DSPCost returns the DSP-slice cost of a class per scalar lane.
func (t *LatencyTable) DSPCost(c OpClass) int { return t.DSP[c] }

// Profile runs the micro-benchmark profiling step: for each operation
// class it samples the implementation variants the tool chooses across
// many synthetic instances and records the mean latency. Deterministic
// for a given platform.
//
// The result is a pure function of the platform's content and samples,
// so it is computed once per distinct content: every later call for an
// equal platform, even a separately built one, returns the same table,
// which callers must not modify.
func Profile(p *Platform, samples int) *LatencyTable {
	if samples <= 0 {
		samples = 256
	}
	key := profileKey(p, samples)
	profiles.mu.Lock()
	t, ok := profiles.m[string(key)]
	profiles.mu.Unlock()
	if ok {
		return t
	}
	t = profile(p, samples)
	profiles.mu.Lock()
	defer profiles.mu.Unlock()
	if cur, ok := profiles.m[string(key)]; ok {
		return cur
	}
	if len(profiles.m) < maxProfiles {
		profiles.m[string(key)] = t
	}
	return t
}

// profiles memoizes Profile by profileKey. It holds at most maxProfiles
// tables; beyond that Profile computes without storing.
var profiles = struct {
	mu sync.Mutex
	m  map[string]*LatencyTable
}{m: make(map[string]*LatencyTable)}

const maxProfiles = 64

// profileKey encodes everything profile reads: the platform's name (the
// sampling seed), the sample count and each class's implementation
// descriptor from the unexported op table, so two platforms share a key
// exactly when they profile to the same table.
func profileKey(p *Platform, samples int) []byte {
	b := strconv.AppendInt(nil, int64(samples), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(p.Name)), 10)
	b = append(b, ':')
	b = append(b, p.Name...)
	for c := OpClass(0); c < numClasses; c++ {
		oi := p.OpInfo(c)
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(oi.DSP), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(oi.II), 10)
		for _, v := range oi.Variants {
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(v), 10)
		}
	}
	return b
}

// profile computes Profile's table.
func profile(p *Platform, samples int) *LatencyTable {
	t := &LatencyTable{}
	seed := HashString(p.Name)
	for c := OpClass(0); c < numClasses; c++ {
		oi := p.OpInfo(c)
		sum := 0
		for s := 0; s < samples; s++ {
			sum += p.VariantFor(c, Mix64(seed^uint64(c)<<32^uint64(s)))
		}
		t.Avg[c] = float64(sum) / float64(samples)
		t.DSP[c] = oi.DSP
		t.II[c] = oi.II
	}
	return t
}
