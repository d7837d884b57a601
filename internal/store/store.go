// Package store persists the reseeding flow's expensive artifacts —
// Prepare flows (fault list + ATPG test set) and Detection Matrices — as
// content-addressed JSON files on disk. It implements the Engine's
// ArtifactStore hook (internal/engine), turning the Engine's in-memory
// caches into the first level of a two-level hierarchy: a daemon restarted
// against a warm store answers its first request without re-running ATPG.
//
// # Layout and addressing
//
// A Store owns one root directory with two subdirectories, flows/ and
// matrices/. Each artifact lives in its own file named by the SHA-256 hash
// of its Engine cache key, so the addressing inherits the Engine's keying
// discipline verbatim: the key already encodes the circuit identity and
// every option an artifact depends on, and any change of either is
// automatically a different file — there is no invalidation protocol. The
// full key is recorded inside the file and verified on load; a mismatch
// (or any other inconsistency) is reported as an error, which the Engine
// counts and converts into a recomputation.
//
// # Encoding
//
// Records use the repository's stable encodings: bit vectors (patterns,
// triplet seeds) as most-significant-first hex strings with explicit
// widths (bitvec.Vector.Hex), Detection Matrix rows as the same hex form
// over the fault universe (bitvec.Set.Hex), and faults by gate NAME rather
// than gate ID — signal names survive the circuit's .bench round trip
// while IDs need not. Rebuilding a flow re-parses the persisted .bench
// source and re-resolves fault sites by name, so a loaded Flow produces
// bit-identical Detection Matrices and solutions (the column order is the
// persisted fault order, and detection is a property of the logic, not of
// gate numbering).
//
// # Concurrency and atomicity
//
// Writes go to a temporary file in the same directory, fsynced, then
// atomically renamed into place, so concurrent writers (several daemons
// sharing one store directory) can only ever race toward identical
// content, readers never observe a torn file, and a replica that crashes
// mid-write can never leave a truncated artifact visible to its peers.
// The Store itself is stateless beyond its root path and safe for
// concurrent use.
//
// # Sharing between replicas
//
// Replicas share artifacts by opening one directory on a shared
// filesystem; there is no network protocol. The decoders check a record's
// structure — its key, its sizes, first detections consistent with its
// rows — never its truth: a well-formed record of a wrong Detection Matrix
// would be covered as given. Only processes trusted to compute artifacts
// may write the directory.
package store

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/atpg"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/dmatrix"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/tpg"
)

// formatVersion is bumped whenever the record schema changes incompatibly;
// records with a different version are treated as absent (recomputed and
// rewritten), never as errors.
const formatVersion = 1

// A Kind names one of the store's two artifact namespaces; it doubles as
// the subdirectory name on disk.
type Kind string

const (
	KindFlows    Kind = "flows"
	KindMatrices Kind = "matrices"
)

// HashKey maps an Engine cache key to its content address: the lowercase
// hex SHA-256 of the key. It is the on-disk file name (plus ".json").
func HashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// Store is an on-disk artifact cache rooted at one directory. Open it with
// Open; the zero value is not usable.
type Store struct {
	root string
}

// Open returns a Store rooted at dir, creating dir and its flows/ and
// matrices/ subdirectories as needed.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "flows"), filepath.Join(dir, "matrices")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Store{root: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.root }

// path maps an Engine cache key to its file: subdir/<sha256(key)>.json.
func (s *Store) path(subdir Kind, key string) string {
	return filepath.Join(s.root, string(subdir), HashKey(key)+".json")
}

// Probe is the store's health check behind the reseedd_store_up gauge:
// the root directory must still exist and be a directory. It is one stat,
// cheap enough to run on every scrape.
func (s *Store) Probe() error {
	fi, err := os.Stat(s.root)
	if err != nil {
		return err
	}
	if !fi.IsDir() {
		return errors.New("store: root is not a directory")
	}
	return nil
}

// Len reports the number of persisted flows and matrices (observability;
// the /v1/stats endpoint surfaces it).
func (s *Store) Len() (flows, matrices int, err error) {
	for _, c := range []struct {
		dir string
		n   *int
	}{{"flows", &flows}, {"matrices", &matrices}} {
		entries, err := os.ReadDir(filepath.Join(s.root, c.dir))
		if err != nil {
			return 0, 0, fmt.Errorf("store: %w", err)
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".json") {
				*c.n++
			}
		}
	}
	return flows, matrices, nil
}

// writeFileAtomic atomically replaces path with data: write to a
// temporary file in the same directory, fsync it, rename it into place,
// then fsync the directory. The fsync before the rename is what keeps a
// shared store crash-safe: without it a replica dying at the wrong moment
// could publish a name whose content had never reached the disk, and
// every peer would read a truncated artifact.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: sync %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	// Publish the rename itself. A failure here means the artifact is
	// readable but its durability across a host crash is uncertain — report
	// it; the engine counts it and the artifact stays usable in memory.
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer dir.Close()
	if err := dir.Sync(); err != nil {
		return fmt.Errorf("store: sync %s: %w", filepath.Dir(path), err)
	}
	return nil
}

// readFile returns path's bytes. The bool reports presence: (false, nil)
// means the file does not exist.
func readFile(path string) ([]byte, bool, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	return data, true, nil
}

// faultJSON is a stuck-at fault addressed by gate name (stable across the
// circuit's Format/Parse round trip, unlike gate IDs).
type faultJSON struct {
	Gate    string `json:"g"`
	Pin     int    `json:"p"`
	StuckAt bool   `json:"s"`
}

// flowJSON is the on-disk form of a core.Flow: the scan-view circuit as
// .bench source plus everything atpg.Run produced. TargetFaults is not
// stored — it is re-derived from Detected exactly as core.Prepare derives
// it, so the two can never disagree.
type flowJSON struct {
	Format int         `json:"format"`
	Key    string      `json:"key"`
	Name   string      `json:"name"`
	Bench  string      `json:"bench"`
	Width  int         `json:"width"` // primary input count (pattern width)
	Faults []faultJSON `json:"faults"`
	// Detected holds the indices into Faults the ATPG test set detects,
	// in ascending order.
	Detected   []int      `json:"detected"`
	Untestable []int      `json:"untestable"`
	Aborted    []int      `json:"aborted"`
	Patterns   []string   `json:"patterns"` // hex, Width bits each
	Stats      atpg.Stats `json:"stats"`
}

// SaveFlow persists a prepared flow under its Engine cache key.
func (s *Store) SaveFlow(key string, f *core.Flow) error {
	data, err := EncodeFlow(key, f)
	if err != nil {
		return err
	}
	return writeFileAtomic(s.path(KindFlows, key), data)
}

// EncodeFlow renders a flow as its store record bytes.
func EncodeFlow(key string, f *core.Flow) ([]byte, error) {
	rec := flowJSON{
		Format:     formatVersion,
		Key:        key,
		Name:       f.Circuit.Name,
		Bench:      netlist.Format(f.Circuit),
		Width:      len(f.Circuit.Inputs),
		Detected:   f.ATPG.DetectedFaults(),
		Untestable: f.ATPG.Untestable,
		Aborted:    f.ATPG.Aborted,
		Stats:      f.ATPG.Stats,
	}
	for _, fa := range f.AllFaults {
		rec.Faults = append(rec.Faults, faultJSON{
			Gate:    f.Circuit.Gates[fa.Gate].Name,
			Pin:     fa.Pin,
			StuckAt: fa.StuckAt1,
		})
	}
	for _, p := range f.Patterns {
		rec.Patterns = append(rec.Patterns, p.Hex())
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encode flow %s: %w", key, err)
	}
	return append(data, '\n'), nil
}

// LoadFlow rebuilds the flow stored under key, or returns (nil, nil) when
// none is stored. The circuit is re-parsed from its persisted .bench
// source and fault sites are re-resolved by gate name, so the rebuilt Flow
// is behaviorally identical to the one Prepare computed even though gate
// IDs may be numbered differently.
func (s *Store) LoadFlow(key string) (*core.Flow, error) {
	data, ok, err := readFile(s.path(KindFlows, key))
	if err != nil || !ok {
		return nil, err
	}
	return DecodeFlow(key, data)
}

// DecodeFlow rebuilds a flow from its store record bytes, verifying the
// embedded key. It returns (nil, nil) for a record of another schema
// generation (treated as absent, recomputed and rewritten).
func DecodeFlow(key string, data []byte) (*core.Flow, error) {
	var rec flowJSON
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("store: decode flow %s: %w", HashKey(key), err)
	}
	if rec.Format != formatVersion {
		return nil, nil // other schema generation: treat as absent
	}
	if rec.Key != key {
		return nil, fmt.Errorf("store: flow record holds key %q, want %q", rec.Key, key)
	}
	c, err := netlist.ParseString(rec.Name, rec.Bench)
	if err != nil {
		return nil, fmt.Errorf("store: flow %s: %w", key, err)
	}
	if got := len(c.Inputs); got != rec.Width {
		return nil, fmt.Errorf("store: flow %s: circuit has %d inputs, record says %d", key, got, rec.Width)
	}
	all := make([]fault.Fault, len(rec.Faults))
	for i, fj := range rec.Faults {
		g, ok := c.GateByName(fj.Gate)
		if !ok {
			return nil, fmt.Errorf("store: flow %s: fault %d names unknown gate %q", key, i, fj.Gate)
		}
		if fj.Pin != fault.OutputPin && (fj.Pin < 0 || fj.Pin >= len(g.Fanin)) {
			return nil, fmt.Errorf("store: flow %s: fault %d pin %d out of range for gate %q", key, i, fj.Pin, fj.Gate)
		}
		all[i] = fault.Fault{Gate: g.ID, Pin: fj.Pin, StuckAt1: fj.StuckAt}
	}
	// Every fault is detected, untestable, aborted or none of these: each
	// index must be in range and listed once across the three lists.
	listed := make([]bool, len(all))
	for _, l := range []struct {
		name string
		idx  []int
	}{{"detected", rec.Detected}, {"untestable", rec.Untestable}, {"aborted", rec.Aborted}} {
		for _, fi := range l.idx {
			if fi < 0 || fi >= len(all) {
				return nil, fmt.Errorf("store: flow %s: %s index %d out of range", key, l.name, fi)
			}
			if listed[fi] {
				return nil, fmt.Errorf("store: flow %s: %s index %d listed twice", key, l.name, fi)
			}
			listed[fi] = true
		}
	}
	res := &atpg.Result{
		Detected:   make([]bool, len(all)),
		Untestable: rec.Untestable,
		Aborted:    rec.Aborted,
		Stats:      rec.Stats,
	}
	for _, fi := range rec.Detected {
		res.Detected[fi] = true
	}
	res.Patterns = make([]bitvec.Vector, len(rec.Patterns))
	for i, h := range rec.Patterns {
		v, err := bitvec.FromHex(rec.Width, h)
		if err != nil {
			return nil, fmt.Errorf("store: flow %s: pattern %d: %w", key, i, err)
		}
		res.Patterns[i] = v
	}
	return core.NewFlow(c, all, res), nil
}

// tripletStoreJSON is one candidate triplet: seeds in hex at the circuit's
// input width, plus its evolution length.
type tripletStoreJSON struct {
	Delta  string `json:"delta"`
	Theta  string `json:"theta"`
	Cycles int    `json:"cycles"`
}

// matrixJSON is the on-disk form of a dmatrix.Matrix. Rows are hex-encoded
// fault sets (bitvec.Set.Hex); the dense FirstDetection table — by far the
// largest part of the record — is stored as one base64 blob of row-major
// little-endian int32s, -1 for no detection, which decodes an order of
// magnitude faster than a JSON integer array (the warm-restart path is
// latency-sensitive: it is what a daemon's first request waits on). The
// blob is four bytes a cell whatever width the table has in memory; the
// decoder sizes the cells by the record's longest evolution length.
type matrixJSON struct {
	Format         int                `json:"format"`
	Key            string             `json:"key"`
	Width          int                `json:"width"` // seed width in bits
	NumFaults      int                `json:"num_faults"`
	Triplets       []tripletStoreJSON `json:"triplets"`
	Rows           []string           `json:"rows"` // hex, NumFaults bits each
	FirstDetection string             `json:"first_detection,omitempty"`
	GateEvals      int64              `json:"gate_evals"`
	PatternsSim    int                `json:"patterns_simulated"`
	TripletSims    int                `json:"triplet_sims"`
}

// encodeFirstDetection packs the table's rows × cols cells into the base64
// blob, -1 for no detection: the same bytes whatever the cell width.
func encodeFirstDetection(fd dmatrix.FirstTable, rows, cols int) string {
	buf := make([]byte, 0, rows*cols*4)
	for i := range rows {
		for j := range cols {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(fd.At(i, j))))
		}
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// decodeFirstDetection unpacks the blob into its rows × cols little-endian
// int32s. A matrix with rows needs the table: test-length trimming reads
// it.
func decodeFirstDetection(blob string, rows, cols int) ([]byte, error) {
	if blob == "" && rows > 0 && cols > 0 {
		return nil, fmt.Errorf("%d rows without a first-detection table", rows)
	}
	buf, err := base64.StdEncoding.DecodeString(blob)
	if err != nil {
		return nil, err
	}
	if len(buf) != rows*cols*4 {
		return nil, fmt.Errorf("first-detection blob holds %d bytes, want %d", len(buf), rows*cols*4)
	}
	return buf, nil
}

// SaveMatrix persists a Detection Matrix under its Engine cache key.
func (s *Store) SaveMatrix(key string, m *dmatrix.Matrix) error {
	data, err := EncodeMatrix(key, m)
	if err != nil {
		return err
	}
	return writeFileAtomic(s.path(KindMatrices, key), data)
}

// EncodeMatrix renders a Detection Matrix as its store record bytes.
func EncodeMatrix(key string, m *dmatrix.Matrix) ([]byte, error) {
	rec := matrixJSON{
		Format:         formatVersion,
		Key:            key,
		NumFaults:      m.NumFaults,
		FirstDetection: encodeFirstDetection(m.FirstDetection, len(m.Rows), m.NumFaults),
		GateEvals:      m.GateEvals,
		PatternsSim:    m.PatternsSimulated,
		TripletSims:    m.TripletSims,
	}
	if len(m.Triplets) > 0 {
		rec.Width = m.Triplets[0].Delta.Width()
	}
	for _, t := range m.Triplets {
		rec.Triplets = append(rec.Triplets, tripletStoreJSON{
			Delta:  t.Delta.Hex(),
			Theta:  t.Theta.Hex(),
			Cycles: t.Cycles,
		})
	}
	for _, r := range m.Rows {
		rec.Rows = append(rec.Rows, r.Hex())
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encode matrix %s: %w", key, err)
	}
	return append(data, '\n'), nil
}

// LoadMatrix rebuilds the Detection Matrix stored under key, or returns
// (nil, nil) when none is stored.
func (s *Store) LoadMatrix(key string) (*dmatrix.Matrix, error) {
	data, ok, err := readFile(s.path(KindMatrices, key))
	if err != nil || !ok {
		return nil, err
	}
	return DecodeMatrix(key, data)
}

// DecodeMatrix rebuilds a Detection Matrix from its store record bytes,
// verifying the embedded key. It returns (nil, nil) for a record of
// another schema generation. Every seed must be exactly ⌈width/4⌉ hex
// digits and every row exactly ⌈num_faults/4⌉ — what EncodeMatrix writes —
// and a matrix with faults must have rows. Both are checked before
// anything is allocated, so neither size can exceed what the record's own
// bytes spell out.
func DecodeMatrix(key string, data []byte) (*dmatrix.Matrix, error) {
	var rec matrixJSON
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("store: decode matrix %s: %w", HashKey(key), err)
	}
	if rec.Format != formatVersion {
		return nil, nil
	}
	if rec.Key != key {
		return nil, fmt.Errorf("store: matrix record holds key %q, want %q", rec.Key, key)
	}
	if len(rec.Rows) != len(rec.Triplets) {
		return nil, fmt.Errorf("store: matrix %s: %d rows for %d triplets", key, len(rec.Rows), len(rec.Triplets))
	}
	if rec.Width < 0 || rec.NumFaults < 0 {
		return nil, fmt.Errorf("store: matrix %s: width %d and %d faults", key, rec.Width, rec.NumFaults)
	}
	if rec.NumFaults > 0 && len(rec.Rows) == 0 {
		return nil, fmt.Errorf("store: matrix %s: %d faults and no rows", key, rec.NumFaults)
	}
	seedDigits, rowDigits := (rec.Width+3)/4, (rec.NumFaults+3)/4
	for i, tj := range rec.Triplets {
		if tj.Cycles < 1 {
			return nil, fmt.Errorf("store: matrix %s: triplet %d has %d cycles", key, i, tj.Cycles)
		}
		if len(tj.Delta) != seedDigits || len(tj.Theta) != seedDigits {
			return nil, fmt.Errorf("store: matrix %s: triplet %d seeds have %d and %d hex digits, want %d for width %d",
				key, i, len(tj.Delta), len(tj.Theta), seedDigits, rec.Width)
		}
	}
	for i, h := range rec.Rows {
		if len(h) != rowDigits {
			return nil, fmt.Errorf("store: matrix %s: row %d has %d hex digits, want %d for %d faults",
				key, i, len(h), rowDigits, rec.NumFaults)
		}
	}
	fd, err := decodeFirstDetection(rec.FirstDetection, len(rec.Triplets), rec.NumFaults)
	if err != nil {
		return nil, fmt.Errorf("store: matrix %s: %w", key, err)
	}
	m := &dmatrix.Matrix{
		NumFaults:         rec.NumFaults,
		GateEvals:         rec.GateEvals,
		PatternsSimulated: rec.PatternsSim,
		TripletSims:       rec.TripletSims,
	}
	for i, tj := range rec.Triplets {
		delta, err := bitvec.FromHex(rec.Width, tj.Delta)
		if err != nil {
			return nil, fmt.Errorf("store: matrix %s: triplet %d delta: %w", key, i, err)
		}
		theta, err := bitvec.FromHex(rec.Width, tj.Theta)
		if err != nil {
			return nil, fmt.Errorf("store: matrix %s: triplet %d theta: %w", key, i, err)
		}
		m.Triplets = append(m.Triplets, tpg.Triplet{Delta: delta, Theta: theta, Cycles: tj.Cycles})
	}
	for i, h := range rec.Rows {
		row, err := bitvec.SetFromHex(rec.NumFaults, h)
		if err != nil {
			return nil, fmt.Errorf("store: matrix %s: row %d: %w", key, i, err)
		}
		m.Rows = append(m.Rows, row)
	}
	// A first detection names a pattern of the triplet's test set exactly
	// where its row detects the fault, and is -1 elsewhere. The table's
	// cells are as wide as the record's longest evolution length needs.
	maxCycles := 0
	for _, t := range m.Triplets {
		maxCycles = max(maxCycles, t.Cycles)
	}
	m.FirstDetection = dmatrix.NewFirstTable(len(m.Triplets), rec.NumFaults, maxCycles)
	for i, t := range m.Triplets {
		for j := range rec.NumFaults {
			x := int32(binary.LittleEndian.Uint32(fd[(i*rec.NumFaults+j)*4:]))
			if x < -1 || int(x) >= t.Cycles || (x >= 0) != m.Rows[i].Contains(j) {
				return nil, fmt.Errorf("store: matrix %s: first detection (%d, %d) = %d for %d cycles and row bit %v",
					key, i, j, x, t.Cycles, m.Rows[i].Contains(j))
			}
			m.FirstDetection.Set(i, j, int(x))
		}
	}
	return m, nil
}
