package serretime

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"serretime/internal/graph"
	"serretime/internal/guard"
	"serretime/internal/retime"
	"serretime/internal/telemetry"
)

// initCache memoizes the Section V initialization (and the graph rebased
// onto it) per (Ts, Th, Epsilon) for one design, so the rungs of a
// degradation chain share one initialization instead of re-running the
// min-period searches: TierMinObsWin and TierMinObs use the same key and
// reuse the entry — including Init.Labels, which each tier's solver state
// clones as its seed — while TierMinObsWinRelaxed (different Epsilon)
// computes its own. A cache belongs to one RetimeRobust call and must not
// be shared across designs.
type initCache struct {
	mu      sync.Mutex
	entries map[initKey]initEntry
}

type initKey struct{ ts, th, epsilon float64 }

type initEntry struct {
	init *retime.Init
	base *graph.Graph
}

func (c *initCache) get(ts, th, epsilon float64) (*retime.Init, *graph.Graph, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[initKey{ts, th, epsilon}]
	return e.init, e.base, ok
}

func (c *initCache) put(ts, th, epsilon float64, init *retime.Init, base *graph.Graph) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = map[initKey]initEntry{}
	}
	c.entries[initKey{ts, th, epsilon}] = initEntry{init, base}
}

// Tier identifies which rung of the graceful-degradation ladder produced
// a RobustResult. Lower values are stronger answers.
type Tier uint8

const (
	// TierMinObsWin is the full algorithm: MinObsWin under ELW (P2')
	// constraints, exactly as requested.
	TierMinObsWin Tier = iota
	// TierMinObsWinRelaxed is MinObsWin re-run with a relaxed ELW budget
	// (the clock-period relaxation ε is multiplied by RelaxFactor, and
	// any Rmin override is shrunk by it), trading some timing-masking
	// fidelity for feasibility.
	TierMinObsWinRelaxed
	// TierMinObs is the Efficient MinObs baseline: P2' disabled, logic
	// masking only — the Krishnaswamy-style fallback.
	TierMinObs
	// TierIdentity is the identity retiming: the input circuit analyzed
	// as-is. Always succeeds unless the design cannot even be analyzed.
	TierIdentity
)

func (t Tier) String() string {
	switch t {
	case TierMinObsWin:
		return "minobswin"
	case TierMinObsWinRelaxed:
		return "minobswin-relaxed"
	case TierMinObs:
		return "minobs"
	case TierIdentity:
		return "identity"
	}
	return fmt.Sprintf("Tier(%d)", uint8(t))
}

// tierPhase maps a degradation rung to its telemetry phase, so each
// attempt of the chain appears as one top-level span with the guard error
// that ended it attached.
func tierPhase(t Tier) telemetry.Phase {
	switch t {
	case TierMinObsWin:
		return telemetry.PhaseTierMinObsWin
	case TierMinObsWinRelaxed:
		return telemetry.PhaseTierMinObsWinRelaxed
	case TierMinObs:
		return telemetry.PhaseTierMinObs
	default:
		return telemetry.PhaseTierIdentity
	}
}

// RobustOptions configures RetimeRobust.
type RobustOptions struct {
	// RetimeOptions configures the strongest tier; weaker tiers derive
	// their configuration from it.
	RetimeOptions
	// Timeout bounds each attempt (0 = only the caller's ctx applies).
	Timeout time.Duration
	// Retries is the number of extra attempts per tier after a transient
	// failure (internal fault or stall). Timeouts are never retried at
	// the same tier — a second identical run would time out identically.
	Retries int
	// RelaxFactor scales the period relaxation ε for the relaxed tier
	// (default 2).
	RelaxFactor float64
}

// Attempt records one run of the degradation chain.
type Attempt struct {
	// Tier is the rung that ran.
	Tier Tier
	// Err is nil for the attempt that produced the final result.
	Err error
	// Runtime is the attempt's wall time.
	Runtime time.Duration
}

// RobustResult is a RetimeResult annotated with how it was obtained.
type RobustResult struct {
	*RetimeResult
	// Tier is the rung that produced the result.
	Tier Tier
	// Degraded reports whether the answer comes from a weaker tier than
	// the one requested.
	Degraded bool
	// Attempts lists every run in order, including the failed ones.
	Attempts []Attempt
}

// RetimeRobust runs the graceful-degradation chain: MinObsWin with ELW
// constraints, then MinObsWin with a relaxed ELW budget, then Efficient
// MinObs (P2' disabled), then the identity retiming. Each tier runs under
// panic isolation, the per-attempt Timeout, and the StallSteps watchdog;
// on failure the chain records the attempt and steps down. The result
// says which tier answered, so callers can distinguish a full-strength
// answer from a degraded one without parsing errors.
//
// If opt.Algorithm is not MinObsWin, the chain starts at the equivalent
// rung (MinObs and MinArea start at TierMinObs) and only degrades from
// there. An error is returned only when every tier failed — including
// identity — or when the caller's ctx is done (errors unwrapping to
// guard.ErrTimeout are not degraded past: the caller's deadline is
// global).
// CanonicalKey extends RetimeOptions.CanonicalKey with the chain-level
// knobs that can change which tier answers (timeout, retries, relax
// factor), with defaults applied. Two RobustOptions with equal keys
// request the same computation.
func (o RobustOptions) CanonicalKey() string {
	relax := o.RelaxFactor
	if !(relax > 1) {
		relax = 2
	}
	return fmt.Sprintf("%s timeout=%s retries=%d relax=%s",
		o.RetimeOptions.CanonicalKey(), o.Timeout, o.Retries, canonFloat(relax))
}

// validate extends RetimeOptions.validate to the chain-level floats.
func (o *RobustOptions) validate(op string) error {
	if err := o.RetimeOptions.validate(op); err != nil {
		return err
	}
	if math.IsNaN(o.RelaxFactor) || math.IsInf(o.RelaxFactor, 0) {
		return guard.Optionf(op, "RelaxFactor", "must be finite, got %v", o.RelaxFactor)
	}
	return nil
}

func (d *Design) RetimeRobust(ctx context.Context, opt RobustOptions) (*RobustResult, error) {
	// Validate and normalize parameters before anything is derived from
	// them: the init memo below keys on raw (Ts, Th, Epsilon) floats, so a
	// NaN (never equal to itself under map lookup) or a -0 (hashes apart
	// from +0 in the canonical key) would silently defeat the memo and the
	// service cache rather than fail.
	if err := opt.validate("serretime.RetimeRobust"); err != nil {
		return nil, err
	}
	if opt.RelaxFactor <= 1 {
		opt.RelaxFactor = 2
	}
	// Tiers built from this options value share one initialization memo
	// (the chain construction below copies RetimeOptions by value, so the
	// pointer is what carries across rungs). The ECO session path
	// (WarmState) pre-sets a memo that outlives one call, so option-only
	// deltas re-enter the Section V initialization for free; batch
	// callers always start fresh.
	if opt.RetimeOptions.initMemo == nil {
		opt.RetimeOptions.initMemo = &initCache{}
	}
	type rung struct {
		tier Tier
		opts RetimeOptions
	}
	var chain []rung
	switch opt.Algorithm {
	case MinObsWin:
		relaxed := opt.RetimeOptions
		if relaxed.Epsilon == 0 {
			relaxed.Epsilon = 0.10
		}
		relaxed.Epsilon *= opt.RelaxFactor
		if relaxed.RminOverride != 0 {
			relaxed.RminOverride /= opt.RelaxFactor
		}
		minobs := opt.RetimeOptions
		minobs.Algorithm = MinObs
		minobs.RminOverride = 0
		chain = []rung{
			{TierMinObsWin, opt.RetimeOptions},
			{TierMinObsWinRelaxed, relaxed},
			{TierMinObs, minobs},
		}
	default:
		chain = []rung{{TierMinObs, opt.RetimeOptions}}
	}

	rec := telemetry.OrNop(opt.RetimeOptions.Recorder)
	out := &RobustResult{}
	attempt := func(tier Tier, fn func(context.Context) (*RetimeResult, error)) (*RetimeResult, error) {
		actx := ctx
		cancel := context.CancelFunc(func() {})
		if opt.Timeout > 0 {
			actx, cancel = context.WithTimeout(ctx, opt.Timeout)
		}
		defer cancel()
		start := time.Now()
		rec.SpanStart(tierPhase(tier))
		res, err := fn(actx)
		rec.SpanEnd(tierPhase(tier), err)
		out.Attempts = append(out.Attempts, Attempt{Tier: tier, Err: err, Runtime: time.Since(start)})
		return res, err
	}

	var lastErr error
	for i, r := range chain {
		for try := 0; try <= opt.Retries; try++ {
			if try > 0 {
				rec.Count(telemetry.CounterRetries, 1)
			}
			if i > 0 && try == 0 {
				rec.Count(telemetry.CounterTierTransitions, 1)
			}
			res, err := attempt(r.tier, func(actx context.Context) (*RetimeResult, error) {
				return d.RetimeCtx(actx, r.opts)
			})
			if err == nil {
				out.RetimeResult = res
				out.Tier = r.tier
				out.Degraded = r.tier != chain[0].tier
				return out, nil
			}
			lastErr = err
			if cerr := guard.Checkpoint(ctx, "serretime.RetimeRobust"); cerr != nil {
				// The caller's own deadline expired: degrading further
				// would just burn it again.
				return nil, cerr
			}
			if errors.Is(err, guard.ErrTimeout) {
				// Per-attempt timeout: deterministic, skip the retries.
				break
			}
		}
	}

	// Identity tier: no optimization, analyze the circuit as-is.
	if len(chain) > 0 {
		rec.Count(telemetry.CounterTierTransitions, 1)
	}
	res, err := attempt(TierIdentity, func(actx context.Context) (*RetimeResult, error) {
		return d.identityResult(actx, opt.RetimeOptions)
	})
	if err != nil {
		return nil, fmt.Errorf("serretime: every degradation tier failed (last optimizer error: %v): %w", lastErr, err)
	}
	out.RetimeResult = res
	out.Tier = TierIdentity
	out.Degraded = true
	return out, nil
}

// identityResult evaluates the design unretimed, as the last rung of the
// degradation chain: Before and After coincide and the "retimed" design
// is the input itself.
func (d *Design) identityResult(ctx context.Context, opt RetimeOptions) (*RetimeResult, error) {
	return guard.Do(ctx, "serretime.identity", func(context.Context) (*RetimeResult, error) {
		if opt.Analysis.Workers == 0 {
			opt.Analysis.Workers = opt.Workers
		}
		if err := d.ensureObsRec(opt.Analysis, opt.Recorder); err != nil {
			return nil, err
		}
		an, err := d.analyzeAt(nil, 0, opt.Analysis)
		if err != nil {
			return nil, err
		}
		return &RetimeResult{
			Algorithm: opt.Algorithm,
			Phi:       an.Phi, PhiMin: an.Phi,
			Before: *an, After: *an,
			Retimed: d,
		}, nil
	})
}
