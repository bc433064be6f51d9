package artifact_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/model"
)

// analysisFor compiles and analyzes one corpus kernel the way
// dse.PrepCache does — the artifact store's only producer.
func analysisFor(t *testing.T, k *bench.Kernel, wg int64) *model.Analysis {
	t.Helper()
	f, err := k.Compile(wg)
	if err != nil {
		t.Fatal(err)
	}
	f.EnsureLoops()
	an, err := model.Analyze(context.Background(), f, device.Virtex7(), k.Config(wg))
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func testKernel(t *testing.T) (*bench.Kernel, int64) {
	t.Helper()
	k := bench.Find("nn", "nn")
	if k == nil {
		t.Fatal("kernel nn/nn missing")
	}
	return k, k.WGSizes()[0]
}

func keyFor(k *bench.Kernel, wg int64) artifact.Key {
	return artifact.Key{Kernel: k.CacheKey(), Platform: device.Virtex7().Name, WG: wg}
}

// TestRoundTripIdenticalPredictions is the store's core contract: a
// record decoded from its own bytes and re-attached to a freshly
// compiled function yields byte-identical model estimates across the
// design space — predictions from disk are indistinguishable from
// fresh ones.
func TestRoundTripIdenticalPredictions(t *testing.T) {
	k, wg := testKernel(t)
	an := analysisFor(t, k, wg)
	key := keyFor(k, wg)

	rec := artifact.New(key, an, 123*time.Millisecond)
	data, err := artifact.Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := artifact.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.FillDuration() != 123*time.Millisecond {
		t.Errorf("FillDuration = %v, want 123ms", rec2.FillDuration())
	}

	f2, err := k.Compile(wg)
	if err != nil {
		t.Fatal(err)
	}
	an2, err := rec2.Analysis(f2, device.Virtex7())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range model.DefaultSpace(wg, 8, 4) {
		if d.WGSize != wg {
			continue
		}
		fresh := an.Predict(d)
		restored := an2.Predict(d)
		if !reflect.DeepEqual(fresh, restored) {
			t.Fatalf("design %v: fresh %+v, restored %+v", d, fresh, restored)
		}
	}
	// Encoding the restored analysis again must reproduce the bytes —
	// the determinism N replicas sharing one directory rely on.
	data2, err := artifact.Encode(artifact.New(key, an2, 123*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("re-encoded record differs from the original bytes")
	}
}

func TestStoreSaveLoad(t *testing.T) {
	k, wg := testKernel(t)
	an := analysisFor(t, k, wg)
	key := keyFor(k, wg)

	s, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(key); ok {
		t.Fatal("Load hit on an empty store")
	}
	if err := s.Save(artifact.New(key, an, time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	rec, ok := s.Load(key)
	if !ok {
		t.Fatal("Load missed a saved record")
	}
	if rec.Key != key {
		t.Errorf("loaded key %+v, want %+v", rec.Key, key)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Corrupt != 0 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 write", st)
	}
}

// corruptionCase mangles a valid artifact file; Load must treat every
// variant as a miss and delete the file so the next fill rewrites it.
func TestCorruptFilesDegradeToMiss(t *testing.T) {
	k, wg := testKernel(t)
	an := analysisFor(t, k, wg)
	key := keyFor(k, wg)
	valid, err := artifact.Encode(artifact.New(key, an, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated-header", valid[:10]},
		{"truncated-body", valid[:len(valid)/2]},
		{"wrong-version-header", []byte("flexcl-artifact v0\n" + `{"version":0}` + "\n")},
		{"version-field-mismatch", []byte("flexcl-artifact v1\n" + `{"version":99}` + "\n")},
		{"garbage-json", []byte("flexcl-artifact v1\nnot json at all\n")},
		{"unknown-field", []byte("flexcl-artifact v1\n" + `{"version":1,"bogus":true}` + "\n")},
		{"foreign-file", []byte("PK\x03\x04 some zip archive")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := artifact.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			path := s.Path(key)
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Load(key); ok {
				t.Fatal("Load returned ok for a corrupt file")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupt file not deleted")
			}
			st := s.Stats()
			if st.Corrupt != 1 || st.Misses != 1 || st.Hits != 0 {
				t.Errorf("stats = %+v, want 1 corrupt miss", st)
			}
			// The store must still be writable after the cleanup.
			if err := s.Save(artifact.New(key, an, time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Load(key); !ok {
				t.Error("rewrite after corruption not readable")
			}
		})
	}
}

// TestWrongKeyInvalidated: a record stored under another key's file
// name (a botched copy between directories) decodes fine but names the
// wrong analysis; Load must reject and delete it.
func TestWrongKeyInvalidated(t *testing.T) {
	k, wg := testKernel(t)
	an := analysisFor(t, k, wg)
	s, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := keyFor(k, wg)
	other := key
	other.WG = key.WG + 1
	if err := s.Save(artifact.New(key, an, time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(s.Path(key), s.Path(other)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(other); ok {
		t.Fatal("Load accepted a record stored under the wrong key")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Errorf("stats = %+v, want the aliased record counted corrupt", st)
	}
}

// TestFingerprintMismatchRejected: a record whose structural
// fingerprint does not match the compiled function must refuse to
// attach its profile.
func TestFingerprintMismatchRejected(t *testing.T) {
	k, wg := testKernel(t)
	an := analysisFor(t, k, wg)
	rec := artifact.New(keyFor(k, wg), an, time.Millisecond)
	rec.Blocks[0].Instrs++ // drift: one instruction appeared

	f, err := k.Compile(wg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Analysis(f, device.Virtex7()); err == nil {
		t.Fatal("Analysis accepted a drifted block fingerprint")
	}

	rec2 := artifact.New(keyFor(k, wg), an, time.Millisecond)
	rec2.Func = "somebody_else"
	if _, err := rec2.Analysis(f, device.Virtex7()); err == nil {
		t.Fatal("Analysis accepted the wrong function name")
	}

	rec3 := artifact.New(keyFor(k, wg), an, time.Millisecond)
	rec3.Freq = append(rec3.Freq, artifact.FreqEntry{Block: len(rec3.Blocks), Count: 1})
	if _, err := rec3.Analysis(f, device.Virtex7()); err == nil {
		t.Fatal("Analysis accepted an out-of-range frequency entry")
	}
}

// TestConcurrentWriters: many goroutines saving and loading one key
// concurrently must be race-free and every successful load must see a
// complete record (the atomic temp-file + rename contract).
func TestConcurrentWriters(t *testing.T) {
	k, wg := testKernel(t)
	an := analysisFor(t, k, wg)
	key := keyFor(k, wg)
	s, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := artifact.New(key, an, time.Millisecond)

	var g sync.WaitGroup
	for i := 0; i < 8; i++ {
		g.Add(1)
		go func() {
			defer g.Done()
			for j := 0; j < 10; j++ {
				if err := s.Save(rec); err != nil {
					t.Errorf("Save: %v", err)
					return
				}
			}
		}()
		g.Add(1)
		go func() {
			defer g.Done()
			for j := 0; j < 10; j++ {
				if got, ok := s.Load(key); ok && got.Key != key {
					t.Errorf("Load returned a torn record: %+v", got.Key)
					return
				}
			}
		}()
	}
	g.Wait()
	if got, ok := s.Load(key); !ok || got.Key != key {
		t.Fatalf("final Load = %v, %v", got, ok)
	}
	if st := s.Stats(); st.WriteErrors != 0 || st.Corrupt != 0 {
		t.Errorf("stats = %+v, want no write errors or corruption", st)
	}
	// No temp files may linger.
	ents, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

// TestUnwritableStoreDegrades: when the directory cannot accept writes
// (here: deleted out from under the store, the failure mode a full or
// yanked volume produces), Save must fail soft — count a WriteError,
// return the error, never panic — and Load must report a plain miss.
func TestUnwritableStoreDegrades(t *testing.T) {
	k, wg := testKernel(t)
	an := analysisFor(t, k, wg)
	key := keyFor(k, wg)
	dir := filepath.Join(t.TempDir(), "store")
	s, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(artifact.New(key, an, time.Millisecond)); err == nil {
		t.Fatal("Save succeeded into a deleted directory")
	}
	if _, ok := s.Load(key); ok {
		t.Fatal("Load hit in a deleted directory")
	}
	st := s.Stats()
	if st.WriteErrors != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 write error and 1 miss", st)
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d in a deleted directory", s.Len())
	}
}

// TestReadOnlyDirectory: a store opened on a pre-existing directory
// that refuses writes still answers loads. Skipped as root (the
// container's default), where permission bits do not bind.
func TestReadOnlyDirectory(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: directory permissions do not bind")
	}
	k, wg := testKernel(t)
	an := analysisFor(t, k, wg)
	key := keyFor(k, wg)
	dir := t.TempDir()
	rw, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Save(artifact.New(key, an, time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(dir, 0o755) })

	s, err := artifact.Open(dir)
	if err != nil {
		t.Fatalf("Open on a read-only directory: %v", err)
	}
	if _, ok := s.Load(key); !ok {
		t.Error("Load missed in a read-only store")
	}
	if err := s.Save(artifact.New(key, an, time.Millisecond)); err == nil {
		t.Error("Save succeeded into a read-only directory")
	}
	if st := s.Stats(); st.WriteErrors != 1 {
		t.Errorf("stats = %+v, want 1 write error", st)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := artifact.Open(""); err == nil {
		t.Error("Open(\"\") succeeded")
	}
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := artifact.Open(file); err == nil {
		t.Error("Open on a plain file succeeded")
	}
}

// TestPathSanitized: keys carry whatever bench.CacheKey produces
// (inline kernels hash arbitrary source); the file name must stay
// inside the store directory and filesystem-safe regardless.
func TestPathSanitized(t *testing.T) {
	s, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := artifact.Key{Kernel: "../../etc/passwd ha:sh", Platform: "weird/plat form", WG: 64}
	p := s.Path(k)
	if filepath.Dir(p) != s.Dir() {
		t.Fatalf("Path %q escapes the store directory", p)
	}
	if strings.ContainsAny(filepath.Base(p), "/: ") {
		t.Errorf("Path base %q not sanitized", filepath.Base(p))
	}
}
