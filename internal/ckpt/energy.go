package ckpt

import (
	"fmt"
	"math"

	"lcpio/internal/dvfs"
	"lcpio/internal/machine"
	"lcpio/internal/nfs"
	"lcpio/internal/phases"
)

// CampaignOptions turns one measured WriteResult into a multi-iteration
// checkpoint (or checkpoint/restart) campaign for the phase planner.
type CampaignOptions struct {
	// Iterations is the number of checkpoint cycles (0 = 1).
	Iterations int
	// ComputeSeconds is the application compute time between checkpoints
	// at base clock.
	ComputeSeconds float64
	// Chip the campaign runs on (nil = Broadwell, the paper's primary).
	Chip *dvfs.Chip
	// Mount is the simulated NFS path the campaign's transfers ride
	// (zero value = DefaultMount).
	Mount nfs.Mount
	// WithRestore appends read + decompress phases per iteration, the
	// checkpoint/restart shape of Moran et al.
	WithRestore bool
}

func (o CampaignOptions) normalized() CampaignOptions {
	if o.Iterations <= 0 {
		o.Iterations = 1
	}
	if o.Chip == nil {
		o.Chip = dvfs.Broadwell()
	}
	return o
}

// CampaignPlan builds a phases.Plan from this write's measured splits,
// priced by the dump cost model (machine.Dump, see dump): the compress leg
// runs the set's codec at its payload-weighted relative error bound and
// *measured* ratio, and the write leg replays the set's on-medium size
// (payload + manifest framing) through the simulated mount. On a parity set
// (ParityRanks > 0) a separate Writing-class "checkpoint-parity-write" phase
// carries the parity bytes, so the redundancy premium is itemized per
// iteration and tuned to 0.85× base like any other NFS transfer (Eqn 3).
// With WithRestore each iteration also reads the file back (less parity —
// a clean restart never reads it) and decompresses it.
// A delta write (format v3) adds the dedup pass over the full raw state
// ("checkpoint-dedup") and compresses only the locally-stored raw bytes at
// their measured ratio. WithRestore is not supported for delta sets — a
// delta restart also replays its base chain, which this result does not
// measure.
func (r *WriteResult) CampaignPlan(opts CampaignOptions) (phases.Plan, error) {
	opts = opts.normalized()
	if r.Manifest.IsDelta() && opts.WithRestore {
		return phases.Plan{}, fmt.Errorf("ckpt: WithRestore campaign not supported for delta sets")
	}
	d := r.dump(opts.Mount)
	legs, err := d.Legs(opts.Chip)
	if err != nil {
		return phases.Plan{}, err
	}
	if opts.WithRestore {
		restore, err := d.LegsNamed(opts.Chip, "read", "decompress")
		if err != nil {
			return phases.Plan{}, err
		}
		legs = append(legs, restore...)
	}
	return phases.Campaign(opts.Iterations, opts.ComputeSeconds, "checkpoint", legs, machine.Clocks{}), nil
}

// dump describes this write to the cost model: the set's codec over its raw
// bytes at the measured ratio, the measured file less parity as the write
// leg, the measured parity, and one redump share per rank. A delta write
// hashes every raw byte, but only its locally stored bytes reach the codec
// (none when everything deduplicated).
func (r *WriteResult) dump(mount nfs.Mount) machine.Dump {
	d := machine.Dump{
		Codec:        r.Manifest.Codec,
		RelEB:        r.MeanRelEB,
		Ratio:        r.Ratio(),
		RawBytes:     r.RawBytes,
		PayloadBytes: r.FileBytes - r.ParityBytes,
		ParityBytes:  r.ParityBytes,
		Ranks:        r.Manifest.Ranks,
		Mount:        mount,
	}
	if r.Manifest.IsDelta() {
		d.Hash = true
		d.Ratio = r.localRatio()
		d.CodecBytes = r.LocalRawBytes
		if r.LocalRawBytes == 0 {
			d.Codec = ""
		}
	}
	return d
}

// EnergyReport executes the campaign at base clock and under the paper's
// Eqn 3 rule (compression at 0.875× base, writing at 0.85×) and returns the
// comparison — the "what does tuned checkpointing save" answer for this set.
func (r *WriteResult) EnergyReport(opts CampaignOptions) (phases.Comparison, error) {
	opts = opts.normalized()
	pl, err := r.CampaignPlan(opts)
	if err != nil {
		return phases.Comparison{}, err
	}
	node := machine.NewNode(opts.Chip, 1)
	return phases.Compare(pl, phases.PaperRule(), node)
}

// ParityEnergy is the redundancy economics of one measured parity write:
// what the erasure-coding leg costs per checkpoint, what recovering a lost
// rank costs with parity (reconstruction) versus without (redump), and the
// per-checkpoint rank-loss probability above which carrying parity is the
// cheaper policy. All legs are costed at the paper's Eqn 3 clocks —
// transfers at 0.85× base, (re)compression at 0.875×.
type ParityEnergy struct {
	ParityRanks int
	ParityBytes int64
	// ParityJoules/ParitySeconds is the per-checkpoint premium: writing the
	// parity shards at the tuned I/O clock.
	ParityJoules  float64
	ParitySeconds float64
	// ReconstructJoules is the incremental cost of rebuilding a lost rank
	// during an already-running restore: fetching the parity shards over the
	// same mount (the GF arithmetic itself is bandwidth-bound and costed as
	// part of that transit).
	ReconstructJoules float64
	// RedumpJoules is what recovering without parity costs: recompress the
	// lost rank's raw share and rewrite its file share.
	RedumpJoules float64
	// BreakEvenLossProb is the per-checkpoint probability of losing a rank
	// at which the parity premium equals the expected redump saving:
	// ParityJoules = p · (RedumpJoules − ReconstructJoules). Below it,
	// plain v1 dumps are cheaper; above it, parity pays for itself.
	// +Inf when reconstruction is not cheaper than redumping.
	BreakEvenLossProb float64
}

// ParityEnergy prices this write's erasure-coding layer under Eqn 3. It is
// only meaningful for parity sets; calling it on a v1 result returns a zero
// report with BreakEvenLossProb = +Inf (no premium, nothing to break even).
func (r *WriteResult) ParityEnergy(opts CampaignOptions) (ParityEnergy, error) {
	opts = opts.normalized()
	pe := ParityEnergy{ParityRanks: r.ParityRanks, ParityBytes: r.ParityBytes}
	if r.ParityBytes <= 0 {
		pe.BreakEvenLossProb = math.Inf(1)
		return pe, nil
	}
	node := machine.NewNode(opts.Chip, 1)
	clocks := machine.PaperClocks(opts.Chip)
	d := r.dump(opts.Mount)
	legs, err := d.LegsNamed(opts.Chip, "parity-write", "recover", "redump-compress", "redump-write")
	if err != nil {
		return ParityEnergy{}, err
	}
	parity := node.Price(legs[0], clocks)
	pe.ParityJoules, pe.ParitySeconds = parity.Joules, parity.Seconds
	pe.ReconstructJoules = node.Price(legs[1], clocks).Joules
	_, pe.RedumpJoules = node.PriceAll(legs[2:], clocks)

	if saving := pe.RedumpJoules - pe.ReconstructJoules; saving > 0 {
		pe.BreakEvenLossProb = pe.ParityJoules / saving
	} else {
		pe.BreakEvenLossProb = math.Inf(1)
	}
	return pe, nil
}

// DeltaEnergy is the incremental-checkpoint economics of one measured delta
// write against its measured full-dump baseline: what the dedup pass costs
// per checkpoint, what the delta actually cost (hash + compress churn +
// write the small file), what the equivalent full dump costs, and the churn
// rate at which the two meet. All legs are costed at the paper's Eqn 3
// clocks — transfers at 0.85× base, CPU passes (hashing, compression) at
// 0.875×.
type DeltaEnergy struct {
	// ChurnRate is the measured fraction of raw bytes this delta stored as
	// new blobs (LocalRawBytes / RawBytes).
	ChurnRate float64
	// DedupRatio is the fraction of raw bytes satisfied without new payload.
	DedupRatio float64
	// HashJoules is the per-checkpoint dedup pass: gear-chunking and
	// digesting the full raw state at the tuned compression clock.
	HashJoules float64
	// DeltaJoules prices this delta checkpoint end to end: the dedup pass,
	// compressing the locally stored raw bytes at their measured ratio, and
	// writing the delta file (manifest framing and parity included).
	DeltaJoules float64
	// FullJoules prices the measured full-dump alternative: compressing the
	// whole raw state at its measured ratio and writing the full file.
	FullJoules float64
	// NetSavedJoules = FullJoules − DeltaJoules: what this delta saved per
	// checkpoint. Negative when hashing cost more than the avoided writes.
	NetSavedJoules float64
	// BreakEvenChurn is the churn rate c* at which a delta checkpoint costs
	// exactly as much as a full dump, modelling delta cost as
	// HashJoules + framing + c·(full compress + write energy). Below c*
	// delta checkpointing wins; 0 if hashing alone already exceeds a full
	// dump, +Inf if a delta is cheaper at any churn.
	BreakEvenChurn float64
}

// DeltaEnergy prices this delta write under Eqn 3 against full, the
// measured full-dump result it replaces (typically the chain's base). It is
// only meaningful for delta results; calling it on a full-dump result
// returns an error, as does a baseline with mismatched raw size.
func (r *WriteResult) DeltaEnergy(full *WriteResult, opts CampaignOptions) (DeltaEnergy, error) {
	opts = opts.normalized()
	if !r.Manifest.IsDelta() {
		return DeltaEnergy{}, fmt.Errorf("ckpt: DeltaEnergy on a non-delta result")
	}
	if full == nil || full.Manifest.IsDelta() {
		return DeltaEnergy{}, fmt.Errorf("ckpt: DeltaEnergy baseline must be a full-dump result")
	}
	if full.RawBytes != r.RawBytes {
		return DeltaEnergy{}, fmt.Errorf("ckpt: baseline raw size %d != delta raw size %d",
			full.RawBytes, r.RawBytes)
	}
	node := machine.NewNode(opts.Chip, 1)
	clocks := machine.PaperClocks(opts.Chip)
	de := DeltaEnergy{
		ChurnRate:  float64(r.LocalRawBytes) / float64(r.RawBytes),
		DedupRatio: r.DedupRatio(),
	}
	delta := r.dump(opts.Mount)
	hash, err := node.PriceLeg(delta, "dedup", clocks)
	if err != nil {
		return DeltaEnergy{}, err
	}
	de.HashJoules = hash.Joules
	if _, de.DeltaJoules, err = node.PriceDump(delta, clocks); err != nil {
		return DeltaEnergy{}, err
	}
	if _, de.FullJoules, err = node.PriceDump(full.dump(opts.Mount), clocks); err != nil {
		return DeltaEnergy{}, err
	}
	de.NetSavedJoules = de.FullJoules - de.DeltaJoules

	// Break-even: a delta at churn c costs roughly the fixed hash pass plus
	// the manifest framing write plus c's share of the full compress+write
	// energy (payload scales ~linearly with churn at fixed data hardness).
	framing, err := node.PriceLeg(machine.Dump{
		PayloadBytes: r.FileBytes - r.PayloadBytes - r.ParityBytes, Mount: opts.Mount,
	}, "write", clocks)
	if err != nil {
		return DeltaEnergy{}, err
	}
	switch margin := de.FullJoules - de.HashJoules - framing.Joules; {
	case margin <= 0:
		de.BreakEvenChurn = 0
	case de.FullJoules <= 0:
		de.BreakEvenChurn = math.Inf(1)
	default:
		de.BreakEvenChurn = margin / de.FullJoules
	}
	return de, nil
}
