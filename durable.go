package malgraph

// Durable ingest: the pipeline journals every accepted batch — the exact
// wire shapes serve receives — to a write-ahead log before the engine
// applies it, and recovery is last snapshot + journal suffix. Because the
// PR 2/3 equivalence contract makes any batch partition of the corpus
// yield identical Results, replaying the journal is just another
// partition: the recovered engine is bit-identical to one that never died.
//
// Journal record kinds:
//
//	"external"  {"observations":[...],"reports":[...]} — an AppendExternal
//	            delivery, journaled after validation/resolution succeeds
//	            (only accepted batches are journaled) and before apply.
//	"feed"      {"index":N} — the Nth batch of the deterministic simulated
//	            feed. The feed is re-derived from the run configuration on
//	            restart, so only the position is journaled.
//
// Sequence gating makes replay exactly-once on top of at-least-once
// delivery: a checkpoint carries the last applied sequence (engine
// AppliedSeq), and records at or below it are skipped. This
// also makes journal truncation after a checkpoint safe without any
// atomicity between the two files — a stale record that survives a lost
// truncate replays as a no-op.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"malgraph/internal/collect"
	"malgraph/internal/reports"
	"malgraph/internal/wal"
)

const (
	recExternal = "external"
	recFeed     = "feed"
)

// externalRecord is the journaled wire shape of an AppendExternal call:
// the raw observations (resolution re-runs deterministically on replay, at
// the world's fixed collection instant) and the parsed accepted reports.
type externalRecord struct {
	Observations []collect.Observation `json:"observations,omitempty"`
	Reports      []*reports.Report     `json:"reports,omitempty"`
}

// feedRecord journals one simulated-feed ingest by position.
type feedRecord struct {
	Index int `json:"index"`
}

// AttachJournal makes every future accepted ingest journal-before-apply
// through l. The journal's sequence counter is raised to the pipeline's
// last applied sequence, so post-attach appends sort after everything a
// restored snapshot already covers. Attach after ReplayJournal when
// recovering.
func (p *Pipeline) AttachJournal(l *wal.Log) {
	p.mu.Lock()
	defer p.mu.Unlock()
	l.EnsureSeq(p.lastSeq)
	p.journal = l
}

// LastSeq returns the durable sequence of the last accepted ingest — the
// number serve hands back to publishers so push can resume idempotently.
func (p *Pipeline) LastSeq() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastSeq
}

// journalLocked appends one record (fsync'd) and returns its sequence
// number without touching lastSeq: the caller commits the sequence only
// after the engine apply succeeds, so a snapshot's AppliedSeq stamp never
// claims a record the engine does not reflect. (A journaled-but-unapplied
// record keeps its burned sequence above the stamp and is re-applied on
// replay instead of being silently skipped.) With no journal attached the
// next sequence is just counted, so serve without -wal still hands out
// monotonic (just not durable) sequence numbers.
func (p *Pipeline) journalLocked(kind string, v any) (uint64, error) {
	if p.journal == nil {
		return p.lastSeq + 1, nil
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return 0, fmt.Errorf("malgraph: journal %s: %w", kind, err)
	}
	seq, err := p.journal.Append(kind, payload)
	if err != nil {
		return 0, fmt.Errorf("malgraph: journal %s: %w", kind, err)
	}
	return seq, nil
}

// Checkpoint couples "checkpoint the engine" with "truncate the journal"
// under the pipeline lock: no concurrent ingest can journal a record
// between the manifest's AppliedSeq stamp and the truncation, so the
// truncate never destroys an acknowledged record the checkpoint does not
// contain. persist receives the engine's checkpoint writer
// (core.Engine.Checkpoint: delta chunks into the store, manifest to the
// writer) and is responsible for making the manifest durable (serve wraps
// it in an fsync'd atomic file replace); the journal is truncated only
// after persist returns success. Checkpoint needs an attached store
// (AttachStore) and fails before calling persist without one. Returns the
// sequence the checkpoint was stamped with.
func (p *Pipeline) Checkpoint(persist func(snapshot func(io.Writer) error) error) (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.Engine.Store() == nil {
		return p.lastSeq, errors.New("malgraph: checkpoint needs an attached content store (AttachStore)")
	}
	p.Engine.Stamp(p.lastSeq, p.fed)
	if err := persist(p.Engine.Checkpoint); err != nil {
		return p.lastSeq, err
	}
	if p.journal != nil {
		if err := p.journal.Reset(); err != nil {
			return p.lastSeq, err
		}
	}
	return p.lastSeq, nil
}

// ReplayJournal re-applies the journal's intact records to the engine,
// skipping everything the restored snapshot already contains (sequence ≤
// the snapshot's AppliedSeq stamp). Feed records always advance the feed
// position — a snapshotted feed batch is in the engine but the in-memory
// cursor restarts at zero — and records above the stamp are re-applied
// through the same code paths as live ingest, without re-journaling.
// Returns the number of records re-applied.
func (p *Pipeline) ReplayJournal(l *wal.Log) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	applied := 0
	restored := p.lastSeq
	err := l.Replay(0, func(rec wal.Record) error {
		switch rec.Kind {
		case recFeed:
			var fr feedRecord
			if err := json.Unmarshal(rec.Payload, &fr); err != nil {
				return fmt.Errorf("malgraph: replay seq %d: decode feed record: %w", rec.Seq, err)
			}
			if fr.Index < 0 || fr.Index >= len(p.feed) {
				return fmt.Errorf("malgraph: replay seq %d: feed index %d outside feed of %d batches (was the serve configuration changed?)",
					rec.Seq, fr.Index, len(p.feed))
			}
			if fr.Index+1 > p.fed {
				p.fed = fr.Index + 1
			}
			if rec.Seq > restored {
				if _, err := p.appendLocked(p.feed[fr.Index]); err != nil {
					return fmt.Errorf("malgraph: replay seq %d: %w", rec.Seq, err)
				}
			}
		case recExternal:
			if rec.Seq <= restored {
				return nil
			}
			var er externalRecord
			if err := json.Unmarshal(rec.Payload, &er); err != nil {
				return fmt.Errorf("malgraph: replay seq %d: decode external record: %w", rec.Seq, err)
			}
			if _, err := p.appendExternalLocked(er.Observations, er.Reports, false); err != nil {
				return fmt.Errorf("malgraph: replay seq %d: %w", rec.Seq, err)
			}
		default:
			return fmt.Errorf("malgraph: replay seq %d: unknown record kind %q", rec.Seq, rec.Kind)
		}
		if rec.Seq > restored {
			applied++
		}
		if rec.Seq > p.lastSeq {
			p.lastSeq = rec.Seq
		}
		return nil
	})
	if err != nil {
		return applied, err
	}
	l.EnsureSeq(p.lastSeq)
	// One publish covers the whole replay: recovered state becomes visible
	// to lock-free readers at the recovered batch boundary.
	p.publishLocked()
	return applied, nil
}
