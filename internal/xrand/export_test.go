package xrand

// Test-only views of Geom's draw mapping, for the differential tests
// in package xrand_test (which import the trace profiles and so
// cannot live in this package).

// Draw is the sample Geom.Sample returns for the 53-bit draw d.
func (g *Geom) Draw(d uint64) int { return g.sample(d) }

// LogPath is the inverse-transform sample of d, without the table.
func (g *Geom) LogPath(d uint64) int { return g.logPath(d) }

// Cuts returns the table's cuts.
func (g *Geom) Cuts() []uint64 { return g.cut[:] }
