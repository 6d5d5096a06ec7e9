package serve

import (
	"fmt"
	"os"
	"path/filepath"

	"rlpm/internal/core"
)

// fsHooks abstracts the syscalls whose ordering makes a checkpoint save
// durable. Production uses osHooks; the durability test swaps in
// recording hooks and asserts the write→sync→rename→dir-sync sequence.
type fsHooks struct {
	syncFile func(*os.File) error
	rename   func(oldpath, newpath string) error
	syncDir  func(dir string) error
}

func osHooks() fsHooks {
	return fsHooks{
		syncFile: (*os.File).Sync,
		rename:   os.Rename,
		syncDir:  syncDir,
	}
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// POSIX only guarantees the rename is durable once the containing
// directory is synced; without this, a power cut right after a
// "successful" save can roll the directory entry back to the old
// checkpoint — or to nothing.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// SaveCheckpoint persists snap at path atomically and durably: the
// checkpoint encoding is written to a temporary file in the same
// directory, fsynced, renamed over the destination, and then the parent
// directory is fsynced, so a crash at any instant leaves either the old
// checkpoint or the new one — complete, and with its directory entry on
// disk. Returns the encoded size.
func SaveCheckpoint(path string, snap core.Snapshot) (int64, error) {
	return saveCheckpoint(path, snap, osHooks())
}

func saveCheckpoint(path string, snap core.Snapshot, fs fsHooks) (int64, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("serve: creating checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := snap.EncodeCheckpoint(tmp); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("serve: encoding checkpoint: %w", err)
	}
	if err := fs.syncFile(tmp); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("serve: syncing checkpoint: %w", err)
	}
	info, err := tmp.Stat()
	if err != nil {
		tmp.Close()
		return 0, fmt.Errorf("serve: stat checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("serve: closing checkpoint: %w", err)
	}
	if err := fs.rename(tmp.Name(), path); err != nil {
		return 0, fmt.Errorf("serve: publishing checkpoint: %w", err)
	}
	if err := fs.syncDir(dir); err != nil {
		return 0, fmt.Errorf("serve: syncing checkpoint directory: %w", err)
	}
	return info.Size(), nil
}

// LoadCheckpoint reads and verifies a checkpoint file. Corruption and
// version mismatches surface as core's typed checkpoint errors. The file
// is read in one read sized by its length, so loading leaves no growth
// garbage behind in a process that may never collect it.
func LoadCheckpoint(path string) (core.Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return core.Snapshot{}, fmt.Errorf("serve: reading checkpoint: %w", err)
	}
	snap, err := core.DecodeCheckpointBytes(raw)
	if err != nil {
		return core.Snapshot{}, fmt.Errorf("serve: checkpoint %s: %w", path, err)
	}
	return snap, nil
}

// LoadModel builds a serving model from a checkpoint file, using cfg for
// everything the checkpoint does not record (reward terms, learning
// hyperparameters); cfg.State is overridden by the checkpoint's recorded
// state configuration — the file is authoritative about the encoding its
// tables were trained with.
func LoadModel(path string, cfg core.Config) (*Model, error) {
	snap, err := LoadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	cfg.State = snap.State
	return NewModel(cfg, snap)
}
