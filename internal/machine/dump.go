package machine

import (
	"fmt"
	"math"

	"lcpio/internal/dvfs"
	"lcpio/internal/netsim"
	"lcpio/internal/nfs"
)

// Eqn 3: the tuned clocks as fractions of base clock — compression and
// the other CPU legs at 0.875, data writing and the other I/O legs at 0.85.
const (
	CompressionFraction = 0.875
	WritingFraction     = 0.85
)

// Class is the Eqn 3 clock class a leg runs at.
type Class int

const (
	// CPU legs (compress, dedup, verify, decompress) run at the
	// compression clock.
	CPU Class = iota
	// IO legs (write, parity-write, recover, read) run at the writing
	// clock.
	IO
)

// Clocks is a (compression, writing) clock pair in GHz.
type Clocks struct{ CPU, IO float64 }

// ClocksAt derives the clock pair from base-clock fractions, snapped to
// the chip's P-state grid.
func ClocksAt(chip *dvfs.Chip, cpuFraction, ioFraction float64) Clocks {
	return Clocks{
		CPU: chip.ClampFreq(cpuFraction * chip.BaseGHz),
		IO:  chip.ClampFreq(ioFraction * chip.BaseGHz),
	}
}

// PaperClocks is Eqn 3 on chip.
func PaperClocks(chip *dvfs.Chip) Clocks {
	return ClocksAt(chip, CompressionFraction, WritingFraction)
}

// Leg is one named step of a dump: its Eqn 3 class and the work it does.
type Leg struct {
	Name  string
	Class Class
	Work  Workload
}

// Price runs the leg noise-free at its class's clock.
func (n *Node) Price(l Leg, c Clocks) Sample {
	if l.Class == IO {
		return n.runClean(l.Work, c.IO)
	}
	return n.runClean(l.Work, c.CPU)
}

// PriceAll prices legs in order and returns their summed seconds and
// joules.
func (n *Node) PriceAll(legs []Leg, c Clocks) (seconds, joules float64) {
	for _, l := range legs {
		s := n.Price(l, c)
		seconds += s.Seconds
		joules += s.Joules
	}
	return seconds, joules
}

// PriceLeg builds the named leg of d on the node's chip and prices it.
func (n *Node) PriceLeg(d Dump, name string, c Clocks) (Sample, error) {
	l, err := d.Leg(name, n.Chip)
	if err != nil {
		return Sample{}, err
	}
	return n.Price(l, c), nil
}

// PriceDump prices every leg of d (Dump.Legs) and returns the totals.
func (n *Node) PriceDump(d Dump, c Clocks) (seconds, joules float64, err error) {
	legs, err := d.Legs(n.Chip)
	if err != nil {
		return 0, 0, err
	}
	seconds, joules = n.PriceAll(legs, c)
	return seconds, joules, nil
}

// Dump describes one dump for pricing. Legs turns it into the steps every
// such dump pays; Leg builds any single step by name, including the
// recovery and restore steps only some callers price.
//
// The leg names:
//
//	dedup            hash every raw byte (Hash)                      CPU
//	compress         the codec over the codec bytes                  CPU
//	verify           the receiver's inflate check (Verify)           CPU
//	write            ship payload + framing                          IO
//	parity-write     ship the parity shards (parity > 0)             IO
//	recover          fetch the parity shards to rebuild a lost rank  IO
//	redump-compress  recompress a lost rank's share of the codec     CPU
//	redump-write     reship a lost rank's share of payload + framing IO
//	read             fetch payload + framing back                    IO
//	decompress       reconstruct the codec bytes                     CPU
//
// I/O legs ride Link when it is set and the NFS Mount otherwise.
type Dump struct {
	// Codec compresses the dump; "" ships raw bytes and has no codec legs.
	Codec string
	// RelEB is the codec's range-relative error bound.
	RelEB float64
	// Ratio is the projected or measured compression ratio.
	Ratio float64
	// RawBytes is the dump's raw state; the dedup leg reads all of it.
	RawBytes int64
	// CodecBytes is the raw bytes that reach the codec (0 = RawBytes, or
	// the Churn share).
	CodecBytes int64
	// Churn in (0, 1) marks a delta dump whose codec sees only
	// ceil(Churn·RawBytes) bytes.
	Churn float64
	// Hash adds the dedup leg.
	Hash bool
	// Verify adds the verify leg.
	Verify bool
	// Workers spreads the compress legs across cores (0 = 1).
	Workers int
	// PayloadBytes is the measured codec output (0 = codec bytes / Ratio,
	// truncated, at least 1 byte). A caller that measured the whole file
	// passes it here, less parity, with FramingBytes 0.
	PayloadBytes int64
	// FramingBytes ship with the payload (manifest, chunk table, header).
	FramingBytes int64
	// ShipRaw ships the codec bytes instead of the payload: the codec runs
	// but the wire carries raw data.
	ShipRaw bool
	// ParityBytes is the measured parity; when 0, ParityShare derives it
	// as payload·ParityShare, truncated.
	ParityBytes int64
	ParityShare float64
	// Ranks share the dump; a lost rank is 1/Ranks of it (0 = 1).
	Ranks int
	// Mount is the NFS target (zero = nfs.DefaultMount); Link, when set,
	// replaces it with a bare link.
	Mount nfs.Mount
	Link  *netsim.Link
}

// Sizes are the byte counts a dump's legs move.
type Sizes struct {
	Codec   int64 // raw bytes through the codec
	Payload int64 // codec output
	Parity  int64
	Shipped int64 // the write leg: payload (or codec bytes) plus framing
}

// Sizes derives every byte count the legs use.
func (d Dump) Sizes() Sizes {
	s := Sizes{Codec: d.CodecBytes, Payload: d.PayloadBytes, Parity: d.ParityBytes}
	if s.Codec == 0 {
		s.Codec = d.RawBytes
		if d.Churn > 0 && d.Churn < 1 {
			s.Codec = max(1, int64(math.Ceil(float64(d.RawBytes)*d.Churn)))
		}
	}
	if s.Payload == 0 {
		s.Payload = s.Codec
		if d.Codec != "" && d.Ratio > 0 {
			s.Payload = int64(float64(s.Codec) / d.Ratio)
		}
		if s.Codec > 0 {
			s.Payload = max(1, s.Payload)
		}
	}
	if s.Parity == 0 && d.ParityShare > 0 {
		s.Parity = int64(float64(s.Payload) * d.ParityShare)
	}
	s.Shipped = s.Payload + d.FramingBytes
	if d.ShipRaw {
		s.Shipped = s.Codec + d.FramingBytes
	}
	return s
}

// Legs returns the steps every such dump pays, in pipeline order: dedup,
// compress, verify, write, parity-write — each only when the dump has it.
func (d Dump) Legs(chip *dvfs.Chip) ([]Leg, error) {
	names := make([]string, 0, 5)
	if d.Hash {
		names = append(names, "dedup")
	}
	if d.Codec != "" {
		names = append(names, "compress")
		if d.Verify {
			names = append(names, "verify")
		}
	}
	names = append(names, "write")
	if d.Sizes().Parity > 0 {
		names = append(names, "parity-write")
	}
	return d.LegsNamed(chip, names...)
}

// LegsNamed builds the named legs in order.
func (d Dump) LegsNamed(chip *dvfs.Chip, names ...string) ([]Leg, error) {
	legs := make([]Leg, len(names))
	for i, name := range names {
		l, err := d.Leg(name, chip)
		if err != nil {
			return nil, err
		}
		legs[i] = l
	}
	return legs, nil
}

// Leg builds the named leg (see Dump for the names).
func (d Dump) Leg(name string, chip *dvfs.Chip) (Leg, error) {
	s := d.Sizes()
	cpu := func(w Workload, err error) (Leg, error) {
		if err != nil {
			return Leg{}, err
		}
		return Leg{Name: name, Class: CPU, Work: w}, nil
	}
	compress := func(bytes int64) (Leg, error) {
		w, err := CompressionWorkloadWithRatio(d.Codec, bytes, d.RelEB, d.Ratio, chip)
		if d.Workers > 1 {
			w = w.WithCores(d.Workers)
		}
		return cpu(w, err)
	}
	io := func(bytes int64, read bool) (Leg, error) {
		return Leg{Name: name, Class: IO, Work: d.transfer(bytes, read, chip)}, nil
	}
	ranks := max(int64(d.Ranks), 1)
	switch name {
	case "dedup":
		return cpu(DedupWorkload(d.RawBytes, chip))
	case "compress":
		return compress(s.Codec)
	case "redump-compress":
		return compress(s.Codec / ranks)
	case "verify", "decompress":
		return cpu(DecompressionWorkload(d.Codec, s.Codec, d.RelEB, d.Ratio, chip))
	case "write":
		return io(s.Shipped, false)
	case "parity-write":
		return io(s.Parity, false)
	case "recover":
		return io(s.Parity, true)
	case "redump-write":
		return io(s.Shipped/ranks, false)
	case "read":
		return io(s.Shipped, true)
	}
	return Leg{}, fmt.Errorf("machine: unknown dump leg %q", name)
}

// transfer moves bytes over the link, or through the NFS mount's write or
// read path.
func (d Dump) transfer(bytes int64, read bool, chip *dvfs.Chip) Workload {
	switch {
	case d.Link != nil:
		return LinkTransitWorkload(bytes, *d.Link, chip)
	case read:
		return TransitWorkload(d.Mount.Read(bytes), chip)
	default:
		return TransitWorkload(d.Mount.Write(bytes), chip)
	}
}
