package malgraph

// Checkpoints need a content-addressed store: the pipeline's engine
// checkpoints as a small manifest (written through Pipeline.Checkpoint's
// persist callback — atomic-rename and WAL-truncation contracts) plus delta
// chunks in the store, so checkpoint cost tracks the ingest delta instead
// of the corpus. See internal/castore and core's snapshot5.go.

import (
	"fmt"
	"io"

	"malgraph/internal/castore"
	"malgraph/internal/core"
)

// AttachStore enables Checkpoint against st and starts delta tracking.
// Attach before the first Checkpoint; the first checkpoint after attaching
// writes the full state into the store (later ones write only what
// changed).
func (p *Pipeline) AttachStore(st *castore.Store) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Engine.AttachStore(st)
}

// Store returns the engine's attached content store, or nil.
func (p *Pipeline) Store() *castore.Store {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.Engine.Store()
}

// LiveRefs returns every store blob the engine's current manifest state
// references — the input to compaction, which additionally unions the refs
// of retained (archived) manifests before sweeping.
func (p *Pipeline) LiveRefs() map[string]bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.Engine.LiveRefs()
}

// RestoreEngineWithStore swaps in an engine restored by core.Restore: a v5
// manifest resolves its chunk references against st and keeps appending to
// the same chunk chains; a SnapshotEngine bundle restores from its own
// bytes and, with st non-nil, attaches st so the first checkpoint re-bases
// everything into it.
func (p *Pipeline) RestoreEngineWithStore(r io.Reader, st *castore.Store) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	eng, err := core.Restore(r, st)
	if err != nil {
		return fmt.Errorf("malgraph: restore: %w", err)
	}
	p.adoptEngineLocked(eng)
	return nil
}
