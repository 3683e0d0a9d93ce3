package main

import (
	"fmt"
	"strings"

	"lcpio/internal/obs"
)

// spanLayers are the obs span names reported as <name>.busy_s and
// <name>.count. Busy seconds are per-name totals summed over goroutines.
var spanLayers = []string{
	"sz.compress", "sz.predict_quantize", "sz.huffman_build", "sz.huffman_encode", "sz.lossless", "sz.decompress",
	"zfp.compress", "zfp.block_transform", "zfp.decompress",
}

// leafLayers are the rows of the layer table: spans and wrapper timings
// that do not nest inside one another, so their busy seconds add. The
// table uses per-name totals, not self times, because span parenting is
// not reliable when workers run concurrently.
var leafLayers = []string{
	"sz.predict_quantize", "sz.huffman_build", "sz.huffman_encode", "sz.lossless", "sz.decompress",
	"zfp.compress", "zfp.decompress", "dedup.split", "ec.encode", "ec.reconstruct",
	"nfs.write", "nfs.read", "medium.write", "medium.read", "socket.client_write",
}

type gcStats struct{ cycles, pauseS float64 }

type layerRow struct {
	name    string
	seconds float64
}

// layerTable returns the leaf rows and the CPU seconds they leave
// unattributed; rows plus the remainder equal cpu.
func layerTable(busy map[string]float64, cpu float64) ([]layerRow, float64) {
	rows := make([]layerRow, 0, len(leafLayers))
	rest := cpu
	for _, name := range leafLayers {
		rows = append(rows, layerRow{name, busy[name]})
		rest -= busy[name]
	}
	return rows, rest
}

// layerMetrics builds the per-layer metrics of a traced phase and renders
// its layer table.
func layerMetrics(spans map[string]obs.SpanTotal, rec *recorder, p *probes, cpu float64, gc gcStats, overhead float64) (map[string]metric, string) {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	busy := map[string]float64{}
	for name, st := range spans {
		busy[name] = st.Seconds
	}
	for _, name := range spanLayers {
		put(name+".busy_s", spans[name].Seconds, "s")
		put(name+".count", float64(spans[name].Count), "count")
	}
	put("dedup.split.busy_s", busy["dedup.split"], "s")
	put("ec.encode.busy_s", busy["ec.encode"], "s")
	put("ec.reconstruct.count", float64(spans["ec.reconstruct"].Count), "count")
	put("nfs.write.busy_s", busy["nfs.write"], "s")
	put("nfs.read.busy_s", busy["nfs.read"], "s")

	for _, io := range []struct {
		name string
		s    *ioStat
	}{{"medium.write", &p.mediumWrite}, {"medium.read", &p.mediumRead}} {
		put(io.name+"_calls", float64(io.s.calls.Load()), "count")
		put(io.name+"_bytes", float64(io.s.bytes.Load()), "B")
		put(io.name+"_busy_s", io.s.busy(), "s")
		busy[io.name] = io.s.busy()
	}
	put("socket.client_tx_bytes", float64(p.clientTx.bytes.Load()), "B")
	put("socket.client_rx_bytes", float64(p.clientRx.bytes.Load()), "B")
	put("socket.server_tx_bytes", float64(p.serverTx.bytes.Load()), "B")
	put("socket.server_rx_bytes", float64(p.serverRx.bytes.Load()), "B")
	put("socket.client_write_busy_s", p.clientTx.busy(), "s")
	put("socket.client_read_wait_s", p.clientRx.busy(), "s")
	put("socket.server_read_wait_s", p.serverRx.busy(), "s")
	busy["socket.client_write"] = p.clientTx.busy()

	rec.mu.Lock()
	for _, name := range []string{"ckpt.write_s", "ckpt.compress_wall_s", "ckpt.open_base_s"} {
		put(name, rec.layer[name], "s")
	}
	// The daemon restores inside the server, where only its span sees
	// them; full sets there have no nested base restore to double-count.
	restoreS := rec.layer["ckpt.restore_s"]
	if restoreS == 0 {
		restoreS = busy["ckpt.restore"]
	}
	put("ckpt.restore_s", restoreS, "s")
	for _, name := range []string{"ckpt.chunks", "ckpt.retries", "dedup.chunks_local", "dedup.chunks_ref",
		"dedup.chunks_shared", "svc.wire_verified_chunks"} {
		put(name, rec.layer[name], "count")
	}
	put("svc.admission_wait_s", rec.layer["svc.admission_wait_s"], "s")
	adviseMS := median(rec.adviseMS)
	rec.mu.Unlock()
	put("svc.advise_ms", adviseMS, "ms")

	put("runtime.gc_cycles", gc.cycles, "count")
	put("runtime.gc_pause_s", gc.pauseS, "s")
	put("obs.trace_overhead_frac", overhead, "frac")
	put("failed_frac", rec.failedFrac(), "frac")

	rows, rest := layerTable(busy, cpu)
	put("layer.process_cpu_s", cpu, "s")
	put("layer.unattributed_cpu_s", rest, "s")

	var t strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&t, "  %-22s %9.4f s %6.1f%%\n", r.name, r.seconds, 100*ratio(r.seconds, cpu))
	}
	fmt.Fprintf(&t, "  %-22s %9.4f s %6.1f%%\n", "unattributed", rest, 100*ratio(rest, cpu))
	fmt.Fprintf(&t, "  %-22s %9.4f s\n", "process CPU", cpu)
	if rest < 0 {
		t.WriteString("  (negative remainder: busy seconds count time a goroutine waited for a CPU inside a span)\n")
	}
	return m, t.String()
}
