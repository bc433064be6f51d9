// Package artifact is the persistent, content-addressed store for
// compile+analysis results: everything dse.PrepCache derives for one
// (kernel workload, platform, work-group size) that is expensive to
// recompute — the profiled block frequencies, the classified memory
// trace and the device latency tables — serialized as one versioned
// record per key.
//
// The store exists so restarts begin warm: a flexcl-serve process (or a
// corpus sweep) pointed at a populated -artifact-dir answers its first
// prediction of every kernel from disk instead of re-running the
// interpreter. Processes sharing one directory reuse each other's
// finished records; two that fill the same key at once each compute it.
//
// Records deliberately do not carry the ir.Func itself: IR is cheap to
// rebuild from source (parse + irgen), deterministic, and full of
// pointer graphs that do not serialize. Instead a record stores a
// structural fingerprint of the function (blocks and loop metadata) and
// the block-frequency profile keyed by block position; restoring a
// record recompiles the kernel and re-attaches the profile, refusing —
// and deleting the file — when the fingerprint no longer matches.
//
// Corrupt, truncated or version-mismatched files are never errors: every
// load failure degrades to a miss (the caller recomputes) and removes
// the offending file so the next fill rewrites it.
package artifact

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/dram"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/trace"
)

// Version is the record format version. Bump it whenever the Record
// schema or the meaning of a field changes; old files then read as
// misses and are rewritten on the next fill. Version 2: float scalar
// kernel arguments are bound as floats, so a record profiled under the
// old integer binding is recomputed.
const Version = 2

// header is the first line of every artifact file. It carries the
// format version so a truncated or foreign file is rejected before the
// JSON decoder runs.
const header = "flexcl-artifact v1"

// Key identifies one analysis artifact: the kernel workload hash
// (bench.Kernel.CacheKey — source, defines, NDRange, buffers, scalars),
// the platform name, and the work-group size the profile was taken at.
type Key struct {
	Kernel   string `json:"kernel"`
	Platform string `json:"platform"`
	WG       int64  `json:"wg"`
}

// BlockMeta fingerprints one basic block of the compiled function.
type BlockMeta struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Instrs int    `json:"instrs"`
}

// LoopMeta fingerprints one natural loop: block positions within
// Func.Blocks plus the static metadata the model consumes.
type LoopMeta struct {
	Header     int   `json:"header"`
	Latch      int   `json:"latch"` // -1 when the loop has no latch
	Blocks     int   `json:"blocks"`
	StaticTrip int64 `json:"static_trip"`
	Unroll     int   `json:"unroll"`
}

// FreqEntry is one profiled block-frequency sample, keyed by the
// block's position in Func.Blocks. Presence matters — consumers
// distinguish "never profiled" from "profiled zero times" — so the
// record stores exactly the entries of the profile map.
type FreqEntry struct {
	Block int     `json:"block"`
	Count float64 `json:"count"`
}

// Record is the serialized form of one prepared analysis: the model
// inputs that are expensive to recompute, plus the structural
// fingerprint that ties them to one compiled function shape.
type Record struct {
	Version int    `json:"version"`
	Key     Key    `json:"key"`
	Func    string `json:"func"`

	Blocks []BlockMeta `json:"blocks"`
	Loops  []LoopMeta  `json:"loops"`

	Freq     []FreqEntry      `json:"freq"`
	Mem      trace.Classified `json:"mem"`
	Barriers float64          `json:"barriers"`
	NWI      int64            `json:"nwi"`
	WGSize   int64            `json:"wg_size"`

	Table  device.LatencyTable   `json:"table"`
	PatLat dram.PatternLatencies `json:"pat_lat"`

	// FillNanos is the wall time the original compile+analyze fill
	// spent — what a cold start pays and a warm start saves.
	FillNanos int64 `json:"fill_nanos"`
}

// FillDuration returns the original fill's compile+analyze wall time.
func (r *Record) FillDuration() time.Duration { return time.Duration(r.FillNanos) }

// New captures a freshly computed analysis as a serializable record.
func New(key Key, an *model.Analysis, fill time.Duration) *Record {
	rec := &Record{
		Version:   Version,
		Key:       key,
		Func:      an.F.Name,
		Mem:       *an.Mem,
		Barriers:  an.Barriers,
		NWI:       an.NWI,
		WGSize:    an.WGSize,
		Table:     *an.Table,
		PatLat:    an.PatLat,
		FillNanos: int64(fill),
	}
	idx := make(map[*ir.Block]int, len(an.F.Blocks))
	for i, b := range an.F.Blocks {
		idx[b] = i
		rec.Blocks = append(rec.Blocks, BlockMeta{ID: b.ID, Name: b.BName, Instrs: len(b.Instrs)})
	}
	an.F.EnsureLoops()
	for _, l := range an.F.Loops {
		lm := LoopMeta{Header: idx[l.Header], Latch: -1,
			Blocks: len(l.Blocks), StaticTrip: l.StaticTrip, Unroll: l.Unroll}
		if l.Latch != nil {
			lm.Latch = idx[l.Latch]
		}
		rec.Loops = append(rec.Loops, lm)
	}
	// Sorted by block position for a deterministic file (maps iterate
	// randomly; identical analyses must serialize to identical bytes).
	rec.Freq = make([]FreqEntry, 0, len(an.Freq))
	for i, b := range an.F.Blocks {
		if c, ok := an.Freq[b]; ok {
			rec.Freq = append(rec.Freq, FreqEntry{Block: i, Count: c})
		}
	}
	return rec
}

// Analysis reconstructs the model.Analysis against a freshly compiled
// function. The record's structural fingerprint must match f exactly —
// same blocks, same loop metadata — otherwise the stored profile would
// silently attach to the wrong code and the error tells the store to
// treat the record as corrupt.
func (r *Record) Analysis(f *ir.Func, p *device.Platform) (*model.Analysis, error) {
	if r.Func != f.Name {
		return nil, fmt.Errorf("artifact: func %q, compiled %q", r.Func, f.Name)
	}
	if len(r.Blocks) != len(f.Blocks) {
		return nil, fmt.Errorf("artifact: %d blocks recorded, %d compiled", len(r.Blocks), len(f.Blocks))
	}
	for i, bm := range r.Blocks {
		b := f.Blocks[i]
		if bm.ID != b.ID || bm.Name != b.BName || bm.Instrs != len(b.Instrs) {
			return nil, fmt.Errorf("artifact: block %d is %s/%d instrs, recorded %s/%d",
				i, b.Label(), len(b.Instrs), fmt.Sprintf("b%d.%s", bm.ID, bm.Name), bm.Instrs)
		}
	}
	f.EnsureLoops()
	idx := make(map[*ir.Block]int, len(f.Blocks))
	for i, b := range f.Blocks {
		idx[b] = i
	}
	if len(r.Loops) != len(f.Loops) {
		return nil, fmt.Errorf("artifact: %d loops recorded, %d analyzed", len(r.Loops), len(f.Loops))
	}
	for i, lm := range r.Loops {
		l := f.Loops[i]
		latch := -1
		if l.Latch != nil {
			latch = idx[l.Latch]
		}
		if lm.Header != idx[l.Header] || lm.Latch != latch ||
			lm.Blocks != len(l.Blocks) || lm.StaticTrip != l.StaticTrip || lm.Unroll != l.Unroll {
			return nil, fmt.Errorf("artifact: loop %d metadata drifted", i)
		}
	}
	freq := make(map[*ir.Block]float64, len(r.Freq))
	for _, fe := range r.Freq {
		if fe.Block < 0 || fe.Block >= len(f.Blocks) {
			return nil, fmt.Errorf("artifact: freq entry for block %d of %d", fe.Block, len(f.Blocks))
		}
		freq[f.Blocks[fe.Block]] = fe.Count
	}
	mem := r.Mem
	table := r.Table
	return &model.Analysis{
		F:        f,
		Platform: p,
		Table:    &table,
		PatLat:   r.PatLat,
		Freq:     freq,
		Mem:      &mem,
		NWI:      r.NWI,
		WGSize:   r.WGSize,
		Barriers: r.Barriers,
	}, nil
}

// Encode renders the record as a self-describing artifact file: the
// version header line followed by the JSON body.
func Encode(r *Record) ([]byte, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("artifact: encoding: %w", err)
	}
	out := make([]byte, 0, len(header)+1+len(body)+1)
	out = append(out, header...)
	out = append(out, '\n')
	out = append(out, body...)
	out = append(out, '\n')
	return out, nil
}

// Decode parses an artifact file, rejecting anything whose header line
// or version field does not match this build's format.
func Decode(data []byte) (*Record, error) {
	line, body, ok := strings.Cut(string(data), "\n")
	if !ok || line != header {
		return nil, fmt.Errorf("artifact: bad header %.40q", line)
	}
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	var rec Record
	if err := dec.Decode(&rec); err != nil {
		return nil, fmt.Errorf("artifact: decoding: %w", err)
	}
	if rec.Version != Version {
		return nil, fmt.Errorf("artifact: version %d, want %d", rec.Version, Version)
	}
	return &rec, nil
}

// Stats is a snapshot of one store's traffic.
type Stats struct {
	// Hits and Misses count Load outcomes (a corrupt file is a miss).
	Hits, Misses uint64
	// Writes counts records persisted; WriteErrors counts Save failures
	// (e.g. a read-only directory) — the caller keeps its computed
	// result either way.
	Writes, WriteErrors uint64
	// Corrupt counts files deleted because they failed to decode or
	// validate.
	Corrupt uint64
}

// Store is a directory of artifact files, one per Key, safe for
// concurrent use by many goroutines and many processes: writes go
// through a unique temp file plus an atomic rename, so readers only
// ever observe complete records.
type Store struct {
	dir string

	hits, misses, writes, writeErrs, corrupt atomic.Uint64
}

// Open returns a store rooted at dir, creating the directory when
// possible. A pre-existing directory that cannot be written (a
// read-only volume) is still usable: loads work, saves count a
// WriteError and the caller keeps computing.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("artifact: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		if st, serr := os.Stat(dir); serr != nil || !st.IsDir() {
			return nil, fmt.Errorf("artifact: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// sanitize keeps file names shell- and filesystem-friendly whatever the
// platform name contains.
func sanitize(v string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			return r
		}
		return '_'
	}, v)
}

// Path returns the file a key is stored at.
func (s *Store) Path(k Key) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s-%s-wg%d.json", sanitize(k.Kernel), sanitize(k.Platform), k.WG))
}

// Load reads the record for a key. Every failure mode — missing,
// truncated, unparseable, wrong version, wrong key — returns ok=false;
// undecodable files are deleted so the next fill rewrites them.
func (s *Store) Load(k Key) (*Record, bool) {
	data, err := os.ReadFile(s.Path(k))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	rec, err := Decode(data)
	if err != nil || rec.Key != k {
		s.Invalidate(k)
		return nil, false
	}
	s.hits.Add(1)
	return rec, true
}

// Invalidate deletes a key's file and counts it corrupt — the path for
// records that decoded but failed post-load validation (e.g. the
// compiled function's fingerprint no longer matches).
func (s *Store) Invalidate(k Key) {
	s.corrupt.Add(1)
	s.misses.Add(1)
	os.Remove(s.Path(k))
}

// Save persists a record atomically: a unique temp file in the same
// directory, then rename. Concurrent writers of one key are safe — the
// records they write are identical by construction (the key hashes
// every analysis input) and rename is atomic, so readers see one whole
// record regardless of who wins.
func (s *Store) Save(rec *Record) error {
	data, err := Encode(rec)
	if err != nil {
		s.writeErrs.Add(1)
		return err
	}
	tmp, err := os.CreateTemp(s.dir, ".artifact-*.tmp")
	if err != nil {
		s.writeErrs.Add(1)
		return fmt.Errorf("artifact: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), s.Path(rec.Key))
	}
	if werr != nil {
		os.Remove(tmp.Name())
		s.writeErrs.Add(1)
		return fmt.Errorf("artifact: %w", werr)
	}
	s.writes.Add(1)
	return nil
}

// Len returns the number of artifact files currently in the store.
func (s *Store) Len() int {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Writes:      s.writes.Load(),
		WriteErrors: s.writeErrs.Load(),
		Corrupt:     s.corrupt.Load(),
	}
}
