package serve

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"rlpm/internal/core"
)

func TestSaveLoadCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "policy.ckpt")
	cfg, snap := testSnapshot(t, 3, 5)

	n, err := SaveCheckpoint(path, snap)
	if err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if info.Size() != n {
		t.Fatalf("reported %d bytes, file is %d", n, info.Size())
	}

	got, err := loadSnapshot(path)
	if err != nil {
		t.Fatalf("loadSnapshot: %v", err)
	}
	if got.State != snap.State {
		t.Fatalf("state config %+v, want %+v", got.State, snap.State)
	}
	for c := range snap.Tables {
		for s := range snap.Tables[c] {
			for a := range snap.Tables[c][s] {
				if got.Tables[c][s][a] != snap.Tables[c][s][a] {
					t.Fatalf("table[%d][%d][%d] drifted through the file", c, s, a)
				}
			}
		}
	}

	m, err := LoadModel(path, cfg)
	if err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	if m.Clusters() != 2 {
		t.Fatalf("loaded model has %d clusters", m.Clusters())
	}
}

// TestSaveCheckpointIsAtomic asserts the write-rename discipline: a save
// over an existing checkpoint either fully replaces it or leaves it intact,
// and no temp files survive.
func TestSaveCheckpointIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "policy.ckpt")
	_, snapA := testSnapshot(t, 3)
	if _, err := SaveCheckpoint(path, snapA); err != nil {
		t.Fatalf("first save: %v", err)
	}

	// A second save with different content must replace the file.
	snapB := snapA
	snapB.Tables = [][][]float64{deepCopyTable(snapA.Tables[0])}
	snapB.Tables[0][0][0] = 1234.5
	if _, err := SaveCheckpoint(path, snapB); err != nil {
		t.Fatalf("second save: %v", err)
	}
	got, err := loadSnapshot(path)
	if err != nil {
		t.Fatalf("load after overwrite: %v", err)
	}
	if got.Tables[0][0][0] != 1234.5 {
		t.Fatal("overwrite did not replace the checkpoint")
	}

	// A save that fails encoding must leave the valid file untouched.
	var bad core.Snapshot
	bad.State = snapA.State
	if _, err := SaveCheckpoint(path, bad); err == nil {
		t.Fatal("empty snapshot saved without error")
	}
	if _, err := loadSnapshot(path); err != nil {
		t.Fatalf("failed save corrupted the existing checkpoint: %v", err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s survived", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("%d files in checkpoint dir, want 1", len(entries))
	}
}

func TestLoadCheckpointRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "policy.ckpt")
	_, snap := testSnapshot(t, 3)
	if _, err := SaveCheckpoint(path, snap); err != nil {
		t.Fatalf("save: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}

	// Flip a payload byte: typed corruption error.
	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0x01
	corrupt := filepath.Join(dir, "corrupt.ckpt")
	if err := os.WriteFile(corrupt, bad, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := loadSnapshot(corrupt); !errors.Is(err, core.ErrCheckpointCorrupt) {
		t.Fatalf("flipped byte: %v, want ErrCheckpointCorrupt", err)
	}
	if _, err := LoadModel(corrupt, core.DefaultConfig()); !errors.Is(err, core.ErrCheckpointCorrupt) {
		t.Fatalf("LoadModel on corrupt file: %v, want ErrCheckpointCorrupt", err)
	}

	// Truncation: typed corruption error.
	trunc := filepath.Join(dir, "trunc.ckpt")
	if err := os.WriteFile(trunc, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := loadSnapshot(trunc); !errors.Is(err, core.ErrCheckpointCorrupt) {
		t.Fatalf("truncated: %v, want ErrCheckpointCorrupt", err)
	}

	// Missing file: a plain error, not a panic.
	if _, err := loadSnapshot(filepath.Join(dir, "absent.ckpt")); err == nil {
		t.Fatal("absent file loaded")
	}
}

func deepCopyTable(t [][]float64) [][]float64 {
	cp := make([][]float64, len(t))
	for i, row := range t {
		cp[i] = append([]float64(nil), row...)
	}
	return cp
}

// allocBytes returns the heap bytes one call of f allocates: the least
// over a few calls after a warm-up, read on one P, so a stray allocation
// by another goroutine cannot fail a pin.
func allocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// servedCheckpoint saves a model of the served shape — the default chip's
// 8- and 9-OPP clusters under the default state configuration, the shape
// of pmserve's quick checkpoint — and returns the model, the path and the
// bytes of its arena.
func servedCheckpoint(t *testing.T) (*Model, string, uint64) {
	t.Helper()
	m := testModel(t, 8, 9)
	path := filepath.Join(t.TempDir(), "served.ckpt")
	n, err := SaveModel(path, m)
	if err != nil {
		t.Fatalf("SaveModel: %v", err)
	}
	// The file is the arena plus a 28-byte header, an 8-byte shape per
	// table and a 4-byte CRC.
	return m, path, uint64(n) - 28 - 8*uint64(m.Clusters()) - 4
}

// TestLoadModelAllocs pins that loading a checkpoint decodes straight into
// the model's arena: LoadModel of the served shape allocates at most the
// arena plus 8 KB, with no whole-file image and no nested rows.
func TestLoadModelAllocs(t *testing.T) {
	m, path, arena := servedCheckpoint(t)
	var loaded *Model
	got := allocBytes(func() {
		var err error
		if loaded, err = LoadModel(path, m.cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("LoadModel allocates %d B for a %d B arena", got, arena)
	if got > arena+8<<10 {
		t.Errorf("LoadModel allocates %d B for a %d B arena, want at most the arena plus 8 KB", got, arena)
	}
	if !snapshotsEqualBits(loaded.Snapshot(), m.Snapshot()) {
		t.Fatal("the loaded model's tables differ from the saved model's")
	}
}

// tempFileBookkeeping returns the heap bytes of the file system work a
// checkpoint save does besides encoding: creating, syncing, stat-ing,
// closing and renaming a temp file beside path, and syncing its directory.
func tempFileBookkeeping(t *testing.T, path string) uint64 {
	t.Helper()
	dir := filepath.Dir(path)
	return allocBytes(func() {
		tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
		if err != nil {
			t.Fatal(err)
		}
		defer os.Remove(tmp.Name())
		if err := tmp.Sync(); err != nil {
			t.Fatal(err)
		}
		if _, err := tmp.Stat(); err != nil {
			t.Fatal(err)
		}
		if err := tmp.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp.Name(), path+".bookkeeping"); err != nil {
			t.Fatal(err)
		}
		if err := syncDir(dir); err != nil {
			t.Fatal(err)
		}
	})
}

// checkSecondPublishAllocs pins that srv's checkpoint saves stream the
// tables: a publication after the first allocates at most 8 KB besides
// the temp file's bookkeeping, where a save through nested rows and a
// whole-file buffer allocates several times the arena.
func checkSecondPublishAllocs(t *testing.T, srv *Server) {
	t.Helper()
	book := tempFileBookkeeping(t, srv.cfg.CheckpointPath)
	got := allocBytes(func() {
		if _, err := srv.publishCheckpoint(false); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a checkpoint publication allocates %d B; the temp file's bookkeeping %d B", got, book)
	if got > book+8<<10 {
		t.Errorf("a checkpoint publication allocates %d B, %d B of it besides the temp file's bookkeeping; want at most 8 KB besides", got, got-min(got, book))
	}
	if _, err := LoadModel(srv.cfg.CheckpointPath, srv.model.cfg); err != nil {
		t.Fatalf("the published checkpoint does not load: %v", err)
	}
}

// TestPublishCheckpointAllocs pins a frozen server's saves: it streams its
// model's immutable arena.
func TestPublishCheckpointAllocs(t *testing.T) {
	m, path, _ := servedCheckpoint(t)
	checkSecondPublishAllocs(t, newTestServer(t, m, nil, Config{CheckpointPath: path}))
}
