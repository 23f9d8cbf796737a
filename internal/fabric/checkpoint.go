package fabric

// checkpoint.go is the cluster checkpoint sidecar: the merged store at
// Config.Path (journal plus compacted manifest) already holds the
// committed shard prefix (and is, by the in-order-commit discipline,
// byte-identical to a serial run's at the same prefix), but partial
// progress inside uncommitted shards would be lost with it alone. The
// sidecar banks each uncommitted shard's freshest partial manifest so
// Resume can requeue those shards with their committed entries intact.
// The sidecar is advisory: deleting it only costs re-running the
// uncommitted shards from scratch.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"

	"repro/internal/campaign"
	"repro/internal/durable"
)

// clusterCheckpointVersion is bumped on incompatible sidecar layouts.
const clusterCheckpointVersion = 1

// clusterCheckpoint is the on-disk sidecar format.
type clusterCheckpoint struct {
	Version   int               `json:"version"`
	Seed      uint64            `json:"seed"`
	Note      string            `json:"note,omitempty"`
	ShardSize int               `json:"shard_size"`
	Shards    []shardCheckpoint `json:"shards"`
}

// shardCheckpoint is one uncommitted shard's banked partial.
type shardCheckpoint struct {
	Index   int                `json:"index"`
	IDs     []string           `json:"ids"`
	Partial *campaign.Manifest `json:"partial"`
}

// saveClusterCheckpoint snapshots every uncommitted shard's partial under
// the coordinator lock, then writes the sidecar atomically outside it.
// Failures are logged, not fatal: the sidecar is a recovery optimization.
func (co *Coordinator) saveClusterCheckpoint() {
	ck := clusterCheckpoint{
		Version:   clusterCheckpointVersion,
		Seed:      co.cfg.Spec.Seed,
		Note:      co.cfg.Note,
		ShardSize: co.cfg.ShardSize,
	}
	co.mu.Lock()
	for _, sh := range co.shards[co.nextCommit:] {
		if sh.state == shardCommitted || sh.partial == nil {
			continue
		}
		ck.Shards = append(ck.Shards, shardCheckpoint{
			Index:   sh.index,
			IDs:     sh.ids,
			Partial: sh.partial,
		})
	}
	co.mu.Unlock()

	data, err := json.MarshalIndent(&ck, "", "  ")
	if err != nil {
		co.logf("fabric: cluster checkpoint: %v", err)
		return
	}
	data = append(data, '\n')
	// Serialize file writes: concurrent drivers may checkpoint at once and
	// the tmp path is shared.
	co.ckptMu.Lock()
	defer co.ckptMu.Unlock()
	if err := durable.WriteFileAtomic(co.cfg.fs(), co.cfg.ClusterPath, data, 0o644); err != nil {
		co.logf("fabric: cluster checkpoint: %v", err)
	}
}

// loadClusterCheckpoint folds a sidecar (when present) back into the
// uncommitted shards during Resume. The sidecar is advisory, so a corrupt
// one (unparseable, wrong version) is quarantined and resume continues
// without it — the only cost is re-running uncommitted shards. But a
// sidecar recorded under a different seed, note or sharding is an
// operator error and refused loudly rather than silently ignored.
func (co *Coordinator) loadClusterCheckpoint() error {
	data, err := co.cfg.fs().ReadFile(co.cfg.ClusterPath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil // merged manifest alone; uncommitted shards restart clean
	}
	if err != nil {
		return err
	}
	var ck clusterCheckpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		co.quarantineSidecar(fmt.Sprintf("unparseable: %v", err))
		return nil
	}
	if ck.Version != clusterCheckpointVersion {
		co.quarantineSidecar(fmt.Sprintf("version %d, want %d", ck.Version, clusterCheckpointVersion))
		return nil
	}
	if ck.Seed != co.cfg.Spec.Seed {
		return fmt.Errorf("fabric: cluster checkpoint %s was recorded with seed %d, not %d", co.cfg.ClusterPath, ck.Seed, co.cfg.Spec.Seed)
	}
	if ck.Note != co.cfg.Note {
		return fmt.Errorf("fabric: cluster checkpoint %s was recorded under config %q, not %q", co.cfg.ClusterPath, ck.Note, co.cfg.Note)
	}
	if ck.ShardSize != co.cfg.ShardSize {
		return fmt.Errorf("fabric: cluster checkpoint %s was recorded with shard size %d, not %d", co.cfg.ClusterPath, ck.ShardSize, co.cfg.ShardSize)
	}
	for _, sc := range ck.Shards {
		if sc.Index < 0 || sc.Index >= len(co.shards) || sc.Partial == nil {
			continue
		}
		sh := co.shards[sc.Index]
		if sh.state == shardCommitted || !sameIDs(sh.ids, sc.IDs) {
			continue
		}
		if sc.Partial.Entries == nil {
			sc.Partial.Entries = map[string]*campaign.Record{}
		}
		co.updatePartial(sh, sc.Partial)
	}
	return nil
}

// quarantineSidecar sets a corrupt sidecar aside (preserving the bytes
// for post-mortems) so resume proceeds without it instead of tripping
// over the same wreck again.
func (co *Coordinator) quarantineSidecar(reason string) {
	q, err := durable.Quarantine(co.cfg.fs(), co.cfg.ClusterPath)
	if err != nil {
		co.logf("fabric: cluster checkpoint %s corrupt (%s); quarantine failed: %v", co.cfg.ClusterPath, reason, err)
		return
	}
	co.logf("fabric: cluster checkpoint %s corrupt (%s); quarantined as %s, uncommitted shards restart clean", co.cfg.ClusterPath, reason, q)
}

// sameIDs reports element-wise equality.
func sameIDs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
