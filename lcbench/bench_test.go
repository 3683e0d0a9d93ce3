package main

import (
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"testing"

	"lcpio/internal/ckpt"
	"lcpio/internal/obs"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // descending: the helper must sort
	}
	if v, err := percentile(xs, 90); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(xs[:99], 90); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it, want an error")
	}
	if v, err := percentile(xs[:20], 50); err != nil || v != 90 {
		t.Fatalf("p50 of 81..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it, want an error")
	}
	rec := newRecorder()
	for i := 0; i < 99; i++ {
		rec.write(1, 4, 1)
		rec.restore(1, 4)
	}
	if res := e2eResult(rec, []float64{1}, 1, 1, 1); res.Correct {
		t.Fatal("a result whose p90 has too few samples beyond it must not be correct")
	}
}

func TestMediumWrapperCounts(t *testing.T) {
	p := &probes{}
	m := p.wrapMedium(ckpt.NewMemMedium())
	if _, err := m.WriteAt(make([]byte, 10), 0); err != nil { // off: not counted
		t.Fatal(err)
	}
	p.on.Store(true)
	for _, n := range []int{10, 20, 30} {
		if _, err := m.WriteAt(make([]byte, n), 10); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.ReadAt(make([]byte, 25), 5); err != nil {
		t.Fatal(err)
	}
	if c, b := p.mediumWrite.calls.Load(), p.mediumWrite.bytes.Load(); c != 3 || b != 60 {
		t.Fatalf("write calls/bytes = %d/%d, want 3/60", c, b)
	}
	if c, b := p.mediumRead.calls.Load(), p.mediumRead.bytes.Load(); c != 1 || b != 25 {
		t.Fatalf("read calls/bytes = %d/%d, want 1/25", c, b)
	}
	if p.mediumWrite.busy() <= 0 {
		t.Fatal("write busy time not recorded")
	}
}

func TestConnWrapperCounts(t *testing.T) {
	p := &probes{}
	p.on.Store(true)
	a, b := net.Pipe()
	client, server := p.wrapClient(a), p.wrapServer(b)
	defer client.Close()
	defer server.Close()
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 1000)
		n, err := server.Read(buf)
		if err == nil {
			_, err = server.Write(buf[:n/2])
		}
		done <- err
	}()
	if _, err := client.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Read(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name        string
		s           *ioStat
		calls, size int64
	}{
		{"client tx", &p.clientTx, 1, 100}, {"server rx", &p.serverRx, 1, 100},
		{"server tx", &p.serverTx, 1, 50}, {"client rx", &p.clientRx, 1, 50},
	} {
		if got, n := c.s.calls.Load(), c.s.bytes.Load(); got != c.calls || n != c.size {
			t.Errorf("%s calls/bytes = %d/%d, want %d/%d", c.name, got, n, c.calls, c.size)
		}
	}
}

func TestLayerTableSumsToProcessCPU(t *testing.T) {
	spans := map[string]obs.SpanTotal{
		"sz.compress":         {Count: 4, Seconds: 3.0}, // parent of the four below: not a leaf
		"sz.predict_quantize": {Count: 8, Seconds: 1.25},
		"sz.huffman_build":    {Count: 8, Seconds: 0.25},
		"sz.lossless":         {Count: 8, Seconds: 0.75},
		"sz.decompress":       {Count: 4, Seconds: 0.5},
		"nfs.write":           {Count: 4, Seconds: 0.125},
	}
	p := &probes{}
	p.mediumWrite.busyNS.Store(250e6)
	p.clientTx.busyNS.Store(50e6)
	const cpu = 4.0
	m, _ := layerMetrics(spans, newRecorder(), p, cpu, gcStats{}, 0)
	rows, rest := layerTable(map[string]float64{"sz.lossless": 0.75, "medium.write": 0.25}, cpu)
	var total float64
	for _, r := range rows {
		total += r.seconds
	}
	if total+rest != cpu || rest != 3 {
		t.Fatalf("rows %v + remainder %v != cpu %v", total, rest, cpu)
	}
	leaves := 1.25 + 0.25 + 0.75 + 0.5 + 0.125 + 0.25 + 0.05
	if got := m["layer.unattributed_cpu_s"].Value; math.Abs(got-(cpu-leaves)) > 1e-9 {
		t.Fatalf("unattributed = %v, want %v", got, cpu-leaves)
	}
	if m["layer.process_cpu_s"].Value != cpu {
		t.Fatalf("process CPU = %v, want %v", m["layer.process_cpu_s"].Value, cpu)
	}
}

func TestCheckRestoredCatchesDrift(t *testing.T) {
	set := isabelSet("drift", "sz", 1, []int{4, 8, 8}, 3)
	got := &ckpt.Restored{}
	for _, f := range set.Fields {
		got.Fields = append(got.Fields, ckpt.RestoredField{Name: f.Name, Data: [][]float32{
			append([]float32(nil), f.Data[0]...),
		}})
	}
	if err := checkRestored(set, got); err != nil {
		t.Fatalf("exact restore rejected: %v", err)
	}
	got.Fields[2].Data[0][17] += float32(2 * set.Fields[2].ErrorBound)
	if err := checkRestored(set, got); err == nil {
		t.Fatal("a value two bounds off passed the check")
	}
}

// flipMedium corrupts one byte of every chunk-sized write.
type flipMedium struct{ ckpt.Medium }

func (m flipMedium) WriteAt(p []byte, off int64) (int, error) {
	if len(p) >= 1024 {
		p = append([]byte(nil), p...)
		p[len(p)/2] ^= 0x10
	}
	return m.Medium.WriteAt(p, off)
}

// runPairs sets wl up with fault under every medium and runs pairs
// write+restore pairs per client.
func runPairs(t *testing.T, wl workload, fault func(ckpt.Medium) ckpt.Medium, pairs int) *recorder {
	t.Helper()
	inst, err := wl.setup(env{seed: 7, dir: t.TempDir(), fault: fault})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := inst.close(); err != nil {
			t.Error(err)
		}
	}()
	b := &bench{wl: wl, inst: inst, next: make([]int, inst.nclients())}
	rec := newRecorder()
	b.fingerprintInto(rec)
	b.runPhase(rec, pairs)
	return rec
}

// TestTeeth checks every workload's output checks can fail: clean runs
// report no failures, and runs whose stored bytes are damaged, or whose
// medium refuses writes, report some.
func TestTeeth(t *testing.T) {
	faults := map[string]func(ckpt.Medium) ckpt.Medium{
		"flip": func(m ckpt.Medium) ckpt.Medium { return flipMedium{m} },
		"faulty": func(m ckpt.Medium) ckpt.Medium {
			return ckpt.NewFaultyMedium(m, 1, ckpt.FaultProfile{WriteErrProb: 1})
		},
	}
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			if rec := runPairs(t, wl, nil, 2); rec.failed != 0 || len(rec.restores) == 0 {
				t.Fatalf("clean run: %d of %d ops failed (%v)", rec.failed, rec.attempted, rec.firstErr)
			}
			for name, fault := range faults {
				rec := runPairs(t, wl, fault, 2)
				if !(rec.failedFrac() > 0) {
					t.Errorf("%s medium: failed_frac = %v, want > 0", name, rec.failedFrac())
				}
				t.Logf("%s medium: failed_frac %.2f, first error: %v", name, rec.failedFrac(), rec.firstErr)
			}
		})
	}
}

// TestBenchmarkJSONMatchesCode keeps the contract file and the metrics and
// workloads this program emits in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit, Why string }
	var doc struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	rec := newRecorder()
	for i := 0; i < minPairs; i++ {
		rec.write(1, 4, 1)
		rec.restore(1, 4)
	}
	layer, _ := layerMetrics(nil, newRecorder(), &probes{}, 1, gcStats{}, 0)
	for _, c := range []struct {
		kind    string
		listed  []named
		emitted map[string]metric
	}{
		{"end_to_end", doc.EndToEnd, e2eResult(rec, []float64{1}, 1, 1, 1).Metrics},
		{"per_layer", doc.PerLayer, layer},
	} {
		if len(c.listed) != len(c.emitted) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code emits %d", c.kind, len(c.listed), len(c.emitted))
		}
		for _, m := range c.listed {
			if got, ok := c.emitted[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s metric %q (%s): code emits %+v, %v", c.kind, m.Name, m.Unit, got, ok)
			}
		}
	}
}
