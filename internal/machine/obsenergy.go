package machine

import (
	"time"

	"lcpio/internal/dvfs"
	"lcpio/internal/nfs"
	"lcpio/internal/obs"
)

// Erasure-coding cost model for span pricing: GF(2^8) table-lookup
// multiply-accumulate over every payload byte, streaming access pattern.
const (
	ecCyclesPerByte = 4.0
	ecStallPerByte  = 0.5e-9
)

// EnergyModel returns an obs.EnergyModel that prices instrumented spans'
// workloads on chip at base clock, using the same calibration constants
// the phase-campaign models run on (DESIGN.md section 5c maps spans to
// the paper's Section III phases; Eqns 2-3 price them).
//
// This is the flame-view attribution model: classes are priced at typical
// operating points (ratio ~8, relEB 1e-3, the default mount geometry)
// because the span site only carries a byte count. Exact campaign
// energies still come from phases.Execute, which attributes its own
// per-phase joules via Span.AddEnergy — the two reconcile at the root
// because spans without a workload class are never priced twice.
func EnergyModel(chip *dvfs.Chip) obs.EnergyModel {
	node := NewNode(chip, 1)
	mount := nfs.DefaultMount()
	return func(class string, bytes int64, elapsed time.Duration) float64 {
		w, ok := workloadForClass(class, bytes, mount, chip)
		if !ok {
			return 0
		}
		return node.runClean(w, chip.BaseGHz).Joules
	}
}

// workloadForClass maps a span's workload class onto the machine model.
// Unknown classes report ok=false and stay unpriced.
func workloadForClass(class string, bytes int64, mount nfs.Mount, chip *dvfs.Chip) (Workload, bool) {
	if bytes < 0 {
		return Workload{}, false
	}
	// Codec and dedup classes are the same-named legs of a typical dump.
	typical := func(codec, leg string) (Workload, bool) {
		l, err := Dump{Codec: codec, RelEB: 1e-3, Ratio: 8, RawBytes: bytes}.Leg(leg, chip)
		return l.Work, err == nil
	}
	switch class {
	case "sz.compress", "zfp.compress", "squant.compress":
		return typical(class[:len(class)-len(".compress")], "compress")
	case "sz.decompress", "zfp.decompress", "squant.decompress":
		return typical(class[:len(class)-len(".decompress")], "decompress")
	case "dedup.split":
		return typical("", "dedup")
	case "nfs.write", "nfs.read":
		// Reconstruct the transfer shape from the default mount geometry:
		// ceil(bytes/wsize) RPCs, wire time at link bandwidth. The nfs sim
		// already ran inside the span being priced, so the model must not
		// run it again (that would record new spans while ending this one).
		wsize := int64(mount.WSize)
		if wsize <= 0 {
			wsize = 1 << 20
		}
		rpcs := (bytes + wsize - 1) / wsize
		if rpcs == 0 {
			rpcs = 1
		}
		var netSec float64
		if bw := mount.Link.BandwidthBps; bw > 0 {
			netSec = float64(bytes) * 8 / bw
		}
		return TransitWorkload(nfs.Transfer{
			PayloadBytes:   bytes,
			RPCs:           rpcs,
			NetworkSeconds: netSec,
		}, chip), true
	case "ec.encode", "ec.reconstruct":
		b := float64(bytes)
		return Workload{
			Kind:         KindCompress,
			Name:         class,
			CPUCycles:    ecCyclesPerByte * b / chip.IPCFactor,
			StallSeconds: ecStallPerByte * b,
			MemBytes:     2 * b,
		}, true
	}
	return Workload{}, false
}
