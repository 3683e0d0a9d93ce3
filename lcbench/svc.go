package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"path/filepath"
	"sync"
	"time"

	"lcpio/internal/ckpt"
	"lcpio/internal/svc"
)

// tenants are the two daemon clients: one ships raw-framed PUTs, the other
// negotiates sz as its compressed wire codec.
var tenants = []struct{ name, wire string }{{"plain", ""}, {"wire", "sz"}}

// svcRun drives an in-process lcpiod over 127.0.0.1 TCP with one
// connection per tenant.
type svcRun struct {
	env     env
	sets    []ckpt.Set
	medium  *ckpt.FileMedium
	srv     *svc.Server
	conns   []net.Conn // client ends, one per tenant
	clients []*svc.Client
	served  sync.WaitGroup

	mu    sync.Mutex
	sizes map[[2]int]int64 // finalized bytes by (tenant, set index)
}

// setupSvc generates two 1.2 MB sets, starts the daemon on a FileMedium,
// and connects both tenants.
func setupSvc(e env) (instance, error) {
	dims := []int{8, 64, 64} // 2^15 elements per rank and field
	w := &svcRun{env: e, sizes: make(map[[2]int]int64)}
	for k := int64(0); k < 2; k++ {
		w.sets = append(w.sets, isabelSet(fmt.Sprintf("svc-%d", k), "sz", 2, dims, e.seed+1000*k))
	}
	fm, err := ckpt.CreateFileMedium(filepath.Join(e.dir, "daemon.lcpt"))
	if err != nil {
		return nil, err
	}
	w.medium = fm
	w.srv = svc.NewServer(svc.Config{Medium: e.medium(fm)})
	for _, t := range tenants {
		if err := w.srv.AddTenant(svc.TenantConfig{Name: t.name}); err != nil {
			w.close()
			return nil, err
		}
	}
	if err := w.connect(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// connect dials one connection per tenant on 127.0.0.1, accepts them
// from the listen backlog, and serves each on its own goroutine.
func (w *svcRun) connect() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	for range tenants {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return err
		}
		w.conns = append(w.conns, conn)
		w.clients = append(w.clients, svc.NewClient(w.env.probes.wrapClient(conn)))
	}
	for range tenants {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		w.served.Add(1)
		go func() {
			defer w.served.Done()
			defer conn.Close()
			_ = w.srv.ServeConn(w.env.probes.wrapServer(conn))
		}()
	}
	return nil
}

func (w *svcRun) nclients() int { return len(tenants) }

// dump runs one write op: Advise, then Dump of the set under a new name.
func (w *svcRun) dump(c int, name string, set ckpt.Set, rec *recorder) (svc.Result, svc.AdviseReply, error) {
	t := tenants[c]
	set.Name = name
	t0 := time.Now()
	adv, err := w.clients[c].Advise(svc.AdviseRequest{Tenant: t.name, RawBytes: rawBytes(set)})
	if err != nil {
		return svc.Result{}, adv, fmt.Errorf("advise: %w", err)
	}
	if rec != nil {
		rec.advise(time.Since(t0))
	}
	res, err := w.clients[c].Dump(t.name, set, svc.DumpOptions{Workers: 1, WireCodec: t.wire})
	if err != nil {
		return res, adv, fmt.Errorf("dump %s: %w", name, err)
	}
	if t.wire != "" && res.WireVerifiedChunks != int64(res.Chunks) {
		return res, adv, fmt.Errorf("dump %s: %d of %d chunks inflate-verified",
			name, res.WireVerifiedChunks, res.Chunks)
	}
	return res, adv, nil
}

// sameSize checks that set k finalizes to one size whichever tenant
// dumped it.
func (w *svcRun) sameSize(c, k int, size int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sizes[[2]int{c, k}] = size
	other, ok := w.sizes[[2]int{1 - c, k}]
	if ok && other != size {
		return fmt.Errorf("set %d finalized to %d bytes over %s, %d over %s",
			k, size, tenants[c].name, other, tenants[1-c].name)
	}
	return nil
}

// step dumps client c's i-th set and has the daemon restore it.
func (w *svcRun) step(c, i int, rec *recorder) {
	k := i % len(w.sets)
	set := w.sets[k]
	// Set names are in the manifest, so both tenants' names share a length.
	name := fmt.Sprintf("%s-%06d", tenants[c].name[:1], i)
	t0 := time.Now()
	res, _, err := w.dump(c, name, set, rec)
	d := time.Since(t0)
	if err == nil {
		err = w.sameSize(c, k, res.SetBytes)
	}
	if err == nil && res.RawBytes != rawBytes(set) {
		err = fmt.Errorf("dump %s: daemon saw %d raw bytes, set has %d", name, res.RawBytes, rawBytes(set))
	}
	if err != nil {
		rec.fail(err)
		return
	}
	rec.write(d, res.RawBytes, res.SetBytes)
	rec.add("ckpt.chunks", float64(res.Chunks))
	rec.add("svc.admission_wait_s", res.AdmissionWaitSeconds)
	rec.add("svc.wire_verified_chunks", float64(res.WireVerifiedChunks))

	t1 := time.Now()
	rr, err := w.clients[c].Restore(name)
	d = time.Since(t1)
	if err == nil && (rr.Chunks != res.Chunks || rr.RawBytes != res.RawBytes) {
		err = fmt.Errorf("restore %s: %d chunks / %d raw bytes, dumped %d / %d",
			name, rr.Chunks, rr.RawBytes, res.Chunks, res.RawBytes)
	}
	if err != nil {
		rec.fail(fmt.Errorf("restore %s: %w", name, err))
		return
	}
	rec.restore(d, rr.RawBytes)
}

// fingerprint dumps the first set once per tenant before the measured
// ops. It records the stored bytes' CRC32C, the first session's modeled
// joules and the advise pick, and checks both tenants' sets finalize to
// the same size.
func (w *svcRun) fingerprint() (map[string]any, error) {
	fp := map[string]any{}
	var sizes []int64
	for c, t := range tenants {
		name := "fingerprint-" + t.name[:1]
		res, adv, err := w.dump(c, name, w.sets[0], nil)
		if err != nil {
			return nil, err
		}
		sizes = append(sizes, res.SetBytes)
		if c > 0 {
			continue
		}
		med, err := w.srv.OpenSet(name)
		if err != nil {
			return nil, err
		}
		buf := make([]byte, med.Size())
		if _, err := med.ReadAt(buf, 0); err != nil {
			return nil, err
		}
		fp["set_crc32c"] = fmt.Sprintf("%08x", crc32.Checksum(buf, castagnoli))
		fp["set_bytes"] = res.SetBytes
		fp["compress_joules"] = res.CompressJoules
		fp["transit_joules"] = res.TransitJoules
		fp["advise_pick"] = fmt.Sprintf("%s@%g", adv.Codec, adv.RelEB)
	}
	if sizes[0] != sizes[1] {
		return nil, fmt.Errorf("the same set finalized to %d bytes plain, %d over wire", sizes[0], sizes[1])
	}
	return fp, nil
}

func (w *svcRun) close() error {
	var errs []error
	for _, c := range w.conns {
		errs = append(errs, c.Close())
	}
	w.served.Wait()
	if w.srv != nil {
		w.srv.Close()
	}
	if w.medium != nil {
		errs = append(errs, w.medium.Close())
	}
	return errors.Join(errs...)
}
