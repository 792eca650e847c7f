package engine

import (
	"plp/internal/addr"
	"plp/internal/ett"
	"plp/internal/ptt"
	"plp/internal/sim"
	"plp/internal/wpq"
)

// PersistRecord is one tuple persist as the timing model scheduled it:
// the identity the crash-injection campaign needs to reconstruct what
// had persisted at an arbitrary crash cycle. Seq is the program
// persist order (0-based); Admit is when the persist obtained its WPQ
// entry; Done is when the scheme acknowledged the whole memory tuple
// as persisted (the cycle the WPQ entry unlocks); RootDone is when its
// BMT root update actually completed. In a correct scheme RootDone
// never exceeds Done — an acknowledgement before the root update is
// precisely the Invariant 2 bug Config.FaultEarlyRootAck injects.
// Epoch is the 0-based epoch index for the epoch persistency schemes
// and 0 elsewhere.
type PersistRecord struct {
	Seq      uint64     `json:"seq"`
	Block    addr.Block `json:"block"`
	Epoch    uint64     `json:"epoch,omitempty"`
	Admit    sim.Cycle  `json:"admit"`
	Done     sim.Cycle  `json:"done"`
	RootDone sim.Cycle  `json:"rootDone"`
}

// CrashLog is the Observer that collects every persist of a run plus
// the end-of-run occupancy snapshots of the persist-tracking hardware
// (at Config.CrashAt when set, otherwise at the run's final cycle) —
// what internal/crash needs to reconstruct the crash-time persisted
// state. Attach it through RunOptions.Observer.
type CrashLog struct {
	nopObserver

	Records []PersistRecord `json:"records"`

	WPQ wpq.Snapshot  `json:"wpq"`
	PTT *ptt.Snapshot `json:"ptt,omitempty"`
	ETT *ett.Snapshot `json:"ett,omitempty"`
}

// Persist appends one persist to the log.
func (l *CrashLog) Persist(r PersistRecord) { l.Records = append(l.Records, r) }

// Finish keeps the end-of-run occupancy snapshots.
func (l *CrashLog) Finish(occ Occupancy) { l.WPQ, l.PTT, l.ETT = occ.WPQ, occ.PTT, occ.ETT }

// crashed reports whether the core clock has passed the injected crash
// cycle. Every persist completes no earlier than the core time at
// which it was admitted, so once the core passes CrashAt no future
// persist can complete by the crash instant: the run may stop early
// without changing the crash-time persisted state. With CrashAt unset
// this is a single comparison per loop iteration.
func (m *machine) crashed(coreTime float64) bool {
	return m.cfg.CrashAt != 0 && coreTime > float64(m.cfg.CrashAt)
}
