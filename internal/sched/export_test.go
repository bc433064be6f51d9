package sched

import "repro/internal/ir"

// SMSReference exposes smsReference to the external test package, which
// builds its inputs with packages that import sched (dse, model).
var SMSReference = smsReference

// AffineIndexOf runs the affine analysis on one memory instruction's
// index.
func AffineIndexOf(f *ir.Func, in *ir.Instr) Affine {
	if len(in.Args) == 0 {
		return Affine{}
	}
	return analyzeAffine(in.Args[0], forwardMap(f), 0)
}

// IssueCycles returns the start cycle the list scheduler gives each
// instruction of b, by position in b.Instrs.
func IssueCycles(b *ir.Block, cfg *Config) []int {
	succ, pred := blockDFG(b.Instrs, cfg.Latency)
	start, _ := listSchedule(b.Instrs, succ, pred, cfg)
	return start
}
