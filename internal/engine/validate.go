package engine

import (
	"fmt"

	"plp/internal/bmt"
	"plp/internal/cache"
	"plp/internal/hier"
)

// Validate reports why cfg cannot run, as an error, instead of letting
// Run panic deep inside a constructor. It applies the same defaults
// fill does, so a zero Config validates clean; callers that accept
// configs from the outside (the plp facade's Session, the job
// service's submit path) check here before handing the config to Run.
func (c Config) Validate() error {
	c.fill()
	spec := specOf(c.Scheme)
	if spec == nil {
		return fmt.Errorf("engine: unknown scheme %q (known: %v)", c.Scheme, Schemes())
	}
	if _, err := bmt.NewTopology(c.BMTLevels, 8); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if c.WPQEntries < 1 {
		return fmt.Errorf("engine: WPQEntries must be >= 1, got %d", c.WPQEntries)
	}
	if c.PTTEntries < 1 {
		return fmt.Errorf("engine: PTTEntries must be >= 1, got %d", c.PTTEntries)
	}
	if c.ETTSlots < 1 {
		return fmt.Errorf("engine: ETTSlots must be >= 1, got %d", c.ETTSlots)
	}
	if c.EpochSize < 1 {
		return fmt.Errorf("engine: EpochSize must be >= 1, got %d", c.EpochSize)
	}
	if spec.validate != nil {
		if err := spec.validate(c); err != nil {
			return err
		}
	}
	if c.FlushCyclesPerLine < 0 {
		return fmt.Errorf("engine: FlushCyclesPerLine must be >= 0, got %d", c.FlushCyclesPerLine)
	}
	if c.MDCWays < 1 {
		return fmt.Errorf("engine: MDCWays must be >= 1, got %d", c.MDCWays)
	}
	// The cache geometries must be constructible (size a multiple of
	// line*ways, power-of-two set count); the cache package's own
	// geometry check, which New runs too, keeps the rules from
	// drifting without allocating a tag store.
	for _, geo := range []cache.Config{
		mdcConfig("ctr", c.CtrCacheKB, c.MDCWays),
		mdcConfig("mac", c.MACCacheKB, c.MDCWays),
		mdcConfig("bmt", c.BMTCacheKB, c.MDCWays),
		hier.DefaultLevels(c.LLCKB, c.LLCWays)[2],
	} {
		if err := geo.Validate(); err != nil {
			return fmt.Errorf("engine: %w", err)
		}
	}
	return nil
}
