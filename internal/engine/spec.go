package engine

import (
	"fmt"

	"plp/internal/nvm"
	"plp/internal/recovery"
)

// Guarantee classifies a scheme's crash-recoverability contract
// (paper Table II): what the crash campaign may assume about the
// persisted state at an arbitrary power loss. It lives here, next to
// the scheme registry, so a scheme and its contract cannot drift
// apart; internal/crash re-exports the names for its callers.
type Guarantee string

const (
	// GuaranteeStrict: at any crash point the persisted state is a
	// program-order prefix of the persist sequence (strict
	// persistency / battery-backed write-back).
	GuaranteeStrict Guarantee = "strict"
	// GuaranteeEpoch: persisted state is a prefix of whole epochs;
	// within an epoch, updates may land out of order but never
	// straddle the epoch boundary.
	GuaranteeEpoch Guarantee = "epoch"
	// GuaranteeNone: no recoverability contract (the unordered
	// strawman) — crashes may strand arbitrary subsets.
	GuaranteeNone Guarantee = "none"
)

// SchemeSpec bundles everything the rest of the repo needs to know
// about one scheme: its runner, its crash-recoverability contract,
// its recovery-time model, per-scheme behavior flags, and an optional
// extra validation hook. Dispatch switches over Scheme constants are
// gone — the registry below is the single source of truth, and
// adding a scheme means adding one registration, not editing five
// switches.
type SchemeSpec struct {
	Scheme Scheme
	// Doc is a one-line description for tables and docs.
	Doc string
	// Core marks the paper's six evaluated schemes (Table IV): the
	// set every Fig. 8-shaped sweep iterates. Extensions and rival
	// schemes are registered with Core=false and appear only in
	// AllSchemes.
	Core bool
	// Guarantee is the scheme's Table II crash-recoverability class.
	Guarantee Guarantee
	// Recovery is the scheme's post-crash recovery discipline (the
	// recovery-time axis).
	Recovery recovery.Model

	// run is the measured-region timing loop.
	run func(*machine, *opStream, float64, *Result)
	// colocated: data+counter+MAC share one NVM line, so the tuple
	// persists with a single write and no metadata fetches (the BMT
	// ordering obligation remains).
	colocated bool
	// coalesce: the ETT applies LCA coalescing (PolicyPaired, or
	// PolicyChained under Config.ChainedCoalescing).
	coalesce bool
	// persistDepth returns how many leaf-side BMT levels the scheme
	// persists inline on every walk (0 = volatile tree, BMTLevels =
	// fully persistent tree). The machine's seqCost issues an NVM
	// write per node below the returned depth, chained into the stage's
	// completion — the write drain gates the parent level. Nil means 0.
	persistDepth func(Config) int
	// writeThrough: every node update is additionally written through
	// to NVM as background traffic (phoenix) — the tree is persistent,
	// but the write is off the walk's critical path, unlike
	// persistDepth's chained writes.
	writeThrough bool
	// validate, when non-nil, adds scheme-specific checks to
	// Config.Validate.
	validate func(Config) error
}

// depth resolves the spec's persisted-level depth for cfg, clamped to
// the tree height.
func (s *SchemeSpec) depth(cfg Config) int {
	if s.persistDepth == nil {
		return 0
	}
	d := s.persistDepth(cfg)
	if d < 0 {
		d = 0
	}
	if d > cfg.BMTLevels {
		d = cfg.BMTLevels
	}
	return d
}

// schemeRegistry holds every registered scheme in registration order;
// schemeIndex is the lookup. Registration happens in the var block
// below — init-order-independent and data-race-free (written once,
// read only after package init).
var (
	schemeRegistry []*SchemeSpec
	schemeIndex    = map[Scheme]*SchemeSpec{}
)

func register(s SchemeSpec) *SchemeSpec {
	if _, dup := schemeIndex[s.Scheme]; dup {
		panic(fmt.Sprintf("engine: scheme %q registered twice", s.Scheme))
	}
	sp := &s
	schemeRegistry = append(schemeRegistry, sp)
	schemeIndex[s.Scheme] = sp
	return sp
}

func fullDepth(c Config) int { return c.BMTLevels }

// The registry. Order matters: the first six are the paper's Table IV
// schemes (CoreSchemes), then the §IV-D/§II extensions, then the
// rival designs from the expansion pack.
var _ = []*SchemeSpec{
	register(SchemeSpec{
		Scheme: SchemeSecureWB, Core: true,
		Doc:       "write-back baseline; only LLC evictions persist, no persistency guarantee for the app",
		Guarantee: GuaranteeStrict,
		Recovery:  recovery.Model{Kind: recovery.KindRebuildFull},
		run:       runSecureWB,
	}),
	register(SchemeSpec{
		Scheme: SchemeUnordered, Core: true,
		Doc:       "write-through with Invariant 2 unenforced: full overlap, roots unordered, unrecoverable",
		Guarantee: GuaranteeNone,
		Recovery:  recovery.Model{Kind: recovery.KindNone},
		run:       runUnordered,
	}),
	register(SchemeSpec{
		Scheme: SchemeSP, Core: true,
		Doc:       "strict persistency, sequential leaf-to-root updates; the core stalls per persist",
		Guarantee: GuaranteeStrict,
		Recovery:  recovery.Model{Kind: recovery.KindRebuildFull},
		run:       runSP,
	}),
	register(SchemeSpec{
		Scheme: SchemePipeline, Core: true,
		Doc:       "PLP mechanism 1: strict persistency with in-order pipelined BMT updates (PTT)",
		Guarantee: GuaranteeStrict,
		Recovery:  recovery.Model{Kind: recovery.KindRebuildFull},
		run:       runPipeline,
	}),
	register(SchemeSpec{
		Scheme: SchemeO3, Core: true,
		Doc:       "PLP mechanism 2: epoch persistency with intra-epoch out-of-order updates (ETT)",
		Guarantee: GuaranteeEpoch,
		Recovery:  recovery.Model{Kind: recovery.KindRebuildFull},
		run:       runEpoch,
	}),
	register(SchemeSpec{
		Scheme: SchemeCoalescing, Core: true,
		Doc:       "PLP mechanism 3: o3 plus paired LCA coalescing",
		Guarantee: GuaranteeEpoch,
		Recovery:  recovery.Model{Kind: recovery.KindRebuildFull},
		run:       runEpoch, coalesce: true,
	}),
	register(SchemeSpec{
		Scheme:    SchemeSGXTree,
		Doc:       "SGX-style counter tree (§IV-D): the whole leaf-to-root path persists per store",
		Guarantee: GuaranteeStrict,
		Recovery:  recovery.Model{Kind: recovery.KindVerifyRoot},
		run:       runSP, persistDepth: fullDepth,
	}),
	register(SchemeSpec{
		Scheme:    SchemeColocated,
		Doc:       "prior-work co-location (§II): data+counter+MAC in one line; BMT ordering remains",
		Guarantee: GuaranteeStrict,
		Recovery:  recovery.Model{Kind: recovery.KindRebuildFull},
		run:       runSP, colocated: true,
	}),
	register(SchemeSpec{
		Scheme:       SchemeTriadSel,
		Doc:          "Triad-NVM selective persistence: the lowest TriadLevels tree levels persist inline",
		Guarantee:    GuaranteeStrict,
		Recovery:     recovery.Model{Kind: recovery.KindRebuildTop},
		run:          runTriadSel,
		persistDepth: func(c Config) int { return c.TriadLevels },
		validate: func(c Config) error {
			if c.TriadLevels < 1 || c.TriadLevels > c.BMTLevels {
				return fmt.Errorf("engine: TriadLevels must be in [1, BMTLevels=%d], got %d",
					c.BMTLevels, c.TriadLevels)
			}
			return nil
		},
	}),
	register(SchemeSpec{
		Scheme:    SchemePhoenix,
		Doc:       "Phoenix persistently secure tree: every node write-through persisted, pipelined walks",
		Guarantee: GuaranteeStrict,
		Recovery:  recovery.Model{Kind: recovery.KindVerifyRoot},
		run:       runPhoenix, writeThrough: true,
	}),
	register(SchemeSpec{
		Scheme:    SchemeShadow,
		Doc:       "Anubis-style shadow tracking: a durable shadow entry per in-flight metadata update",
		Guarantee: GuaranteeStrict,
		Recovery:  recovery.Model{Kind: recovery.KindShadowReplay},
		run:       runShadow,
	}),
	register(SchemeSpec{
		Scheme:    SchemeSuperMemWC,
		Doc:       "SuperMem-style write coalescing: same-leaf persist bursts share one tree walk",
		Guarantee: GuaranteeStrict,
		Recovery:  recovery.Model{Kind: recovery.KindRebuildFull},
		run:       runSuperMemWC,
	}),
}

// specOf returns the registered spec for s, or nil.
func specOf(s Scheme) *SchemeSpec { return schemeIndex[s] }

// SpecOf returns the registered spec for s. The returned spec is
// shared and must not be mutated.
func SpecOf(s Scheme) (*SchemeSpec, bool) {
	sp, ok := schemeIndex[s]
	return sp, ok
}

// Schemes lists every registered scheme in registration order: the
// paper's six Table IV schemes first, then the extensions and rival
// designs. Use CoreSchemes for the Table IV set alone.
func Schemes() []Scheme {
	out := make([]Scheme, len(schemeRegistry))
	for i, sp := range schemeRegistry {
		out[i] = sp.Scheme
	}
	return out
}

// AllSchemes is Schemes under its explicit name, for call sites that
// want to read "everything registered".
func AllSchemes() []Scheme { return Schemes() }

// CoreSchemes lists the paper's six evaluated schemes in Table IV
// order — the set the figure-shaped sweeps iterate.
func CoreSchemes() []Scheme {
	var out []Scheme
	for _, sp := range schemeRegistry {
		if sp.Core {
			out = append(out, sp.Scheme)
		}
	}
	return out
}

// KnownScheme reports whether s is registered.
func KnownScheme(s Scheme) bool { return schemeIndex[s] != nil }

// GuaranteeOf returns s's crash-recoverability contract. Unknown
// schemes report the strictest contract, so a campaign checking an
// unregistered scheme fails loudly rather than vacuously passing.
func GuaranteeOf(s Scheme) Guarantee {
	if sp := schemeIndex[s]; sp != nil {
		return sp.Guarantee
	}
	return GuaranteeStrict
}

// SchemeDoc returns s's one-line description ("" if unregistered).
func SchemeDoc(s Scheme) string {
	if sp := schemeIndex[s]; sp != nil {
		return sp.Doc
	}
	return ""
}

// RecoveryEstimate computes cfg's scheme's recovery-time estimate for
// a crash with the given number of in-flight metadata updates. The
// geometry and per-unit costs come from cfg (normalized first);
// inFlight comes from a crash log when one exists, or from the WPQ
// depth as the worst case. The second return is false for an
// unregistered scheme.
func RecoveryEstimate(cfg Config, inFlight int) (recovery.Estimate, bool) {
	sp := specOf(cfg.Scheme)
	if sp == nil {
		return recovery.Estimate{}, false
	}
	cfg.fill()
	mem := nvm.New(cfg.NVM)
	p := recovery.Params{
		Levels:          cfg.BMTLevels,
		Arity:           8,
		PersistedLevels: sp.depth(cfg),
		InFlight:        inFlight,
		ReadCycles:      mem.ReadLatency(),
		MACCycles:       cfg.MACLatency,
	}
	return sp.Recovery.Estimate(p), true
}

// RecoveryRow is one scheme's line in the recovery-time table: the
// contract, the model kind, and the worst-case estimate for cfg's
// geometry (inFlight = WPQEntries).
type RecoveryRow struct {
	Scheme    Scheme
	Guarantee Guarantee
	Estimate  recovery.Estimate
}

// RecoveryRows builds the recovery-time table for every registered
// scheme under base (scheme field overwritten per row): deterministic,
// simulation-free arithmetic.
func RecoveryRows(base Config) []RecoveryRow {
	rows := make([]RecoveryRow, 0, len(schemeRegistry))
	for _, sp := range schemeRegistry {
		cfg := base
		cfg.Scheme = sp.Scheme
		est, _ := RecoveryEstimate(cfg, cfg.Normalized().WPQEntries)
		rows = append(rows, RecoveryRow{Scheme: sp.Scheme, Guarantee: sp.Guarantee, Estimate: est})
	}
	return rows
}
