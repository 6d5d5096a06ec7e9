package serve

import (
	"fmt"
	"io"
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
// directory, flushed and fsynced, renamed over the destination, and then
// the parent directory is fsynced, so a crash at any instant leaves either
// the old checkpoint or the new one — complete, and with its directory
// entry on disk. Returns the encoded size. It packs snap's nested tables
// into an arena first; a server saves its model's arena with SaveModel.
func SaveCheckpoint(path string, snap core.Snapshot) (int64, error) {
	tables := core.NewFlatTables(snap.Tables)
	if tables == nil {
		return 0, fmt.Errorf("serve: cannot pack the snapshot's tables into an arena (ragged, empty, or wider than %d actions)", core.MaxFlatActions)
	}
	return saveCheckpoint(path, snap.State, tables, osHooks())
}

// SaveModel persists m's tables at path as SaveCheckpoint does, streaming
// them from the model's arena.
func SaveModel(path string, m *Model) (int64, error) {
	return saveCheckpoint(path, m.cfg.State, m.flat, osHooks())
}

// saveCheckpoint streams st and tables to a temporary file beside path
// and publishes it there. WriteCheckpoint flushes its buffer before it
// returns, so the fsync covers every byte.
func saveCheckpoint(path string, st core.StateConfig, tables *core.FlatTables, fs fsHooks) (int64, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("serve: creating checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := core.WriteCheckpoint(tmp, st, tables); err != nil {
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

// LoadModel builds a serving model from a checkpoint file, decoding the
// file straight into the model's arena as ReadModel does. Corruption and
// version mismatches surface as core's typed checkpoint errors.
func LoadModel(path string, cfg core.Config) (*Model, error) {
	st, tables, err := core.ReadCheckpointFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	cfg.State = st
	return newModel(cfg, st, tables)
}

// ReadModel builds a serving model from a checkpoint of size bytes read
// from r. The tables decode into one arena, which the model keeps: no
// other copy of them is made. cfg supplies everything the checkpoint does
// not record (reward terms, learning hyperparameters); cfg.State is
// overridden by the checkpoint's recorded state configuration — the file
// is authoritative about the encoding its tables were trained with.
func ReadModel(r io.Reader, size int64, cfg core.Config) (*Model, error) {
	st, tables, err := core.ReadCheckpoint(r, size)
	if err != nil {
		return nil, err
	}
	cfg.State = st
	return newModel(cfg, st, tables)
}
