// Package store is the on-disk knowledge base that lets the engine warm-start
// across process lifetimes. It persists the grounder-independent learned
// state — theory-lemma vectors (lia.Lin), unsat-core predicate sets, SMT
// validity/consistency verdicts, optimal-negative-solution search results,
// and whole solved-problem outcomes — in a single versioned, checksummed
// append-only log.
//
// Everything persisted here is safe to replay into a fresh engine:
//
//   - Theory lemmas are valid LIA facts independent of any grounder, so
//     importing them can never flip a verdict (they are re-interned and
//     re-asserted by the receiving context's SAT instance).
//   - Verdicts and outcomes are deterministic given identical solver bounds,
//     so the header carries a params fingerprint and the whole store falls
//     back to cold start when the bounds change.
//   - Search results are re-checked by their reader before use: every
//     listed solution is re-probed valid, and a failing record is replaced
//     by a fresh search (see Store.Search).
//   - Conservative answers produced under a fired Stop hook are never
//     appended by callers (mirroring the in-memory cache's forget-on-stop
//     rule), so replay cannot resurrect a deadline artifact as truth.
//
// Durability model: appends are write-behind through a bounded queue drained
// by a dedicated flusher goroutine (coalesced writes, optional fsync per
// flush). Flush() and Close() always fsync, so a graceful drain loses
// nothing; a crash loses at most the last flush interval. Corruption is
// contained by a per-record CRC32: a torn or bit-flipped tail is truncated
// away on the next open, and an unreadable header sidelines the whole file
// and starts cold — never a crash, never a wrong verdict.
package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lia"
)

const (
	// version is bumped whenever the record encoding changes incompatibly;
	// a mismatch sidelines the file and starts cold.
	version = 1

	logName = "knowledge.log"

	// tmpName is the next-generation rewrite target of the compactor. It is
	// atomically renamed over logName on success and removed on open: a
	// crash at any point of a compaction leaves either the old generation
	// (tmp incomplete or complete-but-unrenamed) or the new one (rename
	// done), both loadable.
	tmpName = logName + ".tmp"

	// maxLineBytes bounds a single record line; anything longer is treated
	// as corruption (and callers never produce records near this size).
	maxLineBytes = 1 << 20

	// maxQueuedRecords bounds the write-behind queue. When the flusher
	// cannot keep up, further appends are dropped (and counted) rather
	// than blocking the solver hot path.
	maxQueuedRecords = 1 << 15

	// maxLemmasPerSkel bounds how many lemma records a single skeleton
	// accumulates across lifetimes, mirroring ctxMaxLemmas in smt.
	maxLemmasPerSkel = 4096

	// maxCores bounds the portable core list.
	maxCores = 4096

	// maxFlushRetries bounds how many consecutive flushes may fail before
	// the batch is dropped (and counted): a transient write error (brief
	// ENOSPC, ...) is retried, a persistent one must not pin the queue
	// forever.
	maxFlushRetries = 8

	defaultFlushInterval = 250 * time.Millisecond

	// defaultDropWarnInterval rate-limits the queue-full warning: the first
	// drop logs immediately, later drops log at most once per interval.
	defaultDropWarnInterval = 30 * time.Second

	// Auto-compaction defaults: the flusher triggers a compaction once the
	// log exceeds CompactMinBytes and at least CompactGarbageRatio of it is
	// not live (duplicate or superseded records from earlier generations).
	defaultCompactMinBytes     = 1 << 20
	defaultCompactGarbageRatio = 0.5
)

// Options configures Open.
type Options struct {
	// Params is a fingerprint of every solver/engine option that could
	// change a verdict (instantiation rounds, Ackermann budgets, theory
	// iteration caps, ...). A store written under a different fingerprint
	// is sidelined and the engine starts cold: persisted verdicts are only
	// as deterministic as the bounds they were computed under.
	Params string

	// Fsync makes every periodic flush fsync. Flush() and Close() always
	// fsync regardless.
	Fsync bool

	// FlushInterval is the write-behind coalescing window (default 250ms).
	FlushInterval time.Duration

	// Logf, when non-nil, receives warnings (corruption fallback, dropped
	// records). It is never called on the solver hot path.
	Logf func(format string, args ...any)

	// DropWarnInterval rate-limits the queue-full data-loss warning
	// (default 30s): the first drop logs immediately, later drops at most
	// once per interval.
	DropWarnInterval time.Duration

	// CompactMinBytes and CompactGarbageRatio tune the flusher's
	// auto-compaction trigger: compact once the log exceeds CompactMinBytes
	// (default 1 MiB) and at least CompactGarbageRatio (default 0.5) of it
	// is garbage. DisableAutoCompact turns the trigger off; Compact() stays
	// available.
	CompactMinBytes     int64
	CompactGarbageRatio float64
	DisableAutoCompact  bool
}

// Lemma is one grounder-independent theory lemma: the clause
// ⋁ᵢ (Lins[i] ≤ 0) = Vals[i], exactly a context's in-memory lemma record.
type Lemma struct {
	Lins []lia.Lin `json:"lins"`
	Vals []bool    `json:"vals"`
}

// Core is a portable unsat-core item: the named unknown cannot hold all of
// Preds (predicate FormulaKeys) simultaneously.
type Core struct {
	Unknown string   `json:"unknown"`
	Preds   []string `json:"preds"`
}

// Stats is a point-in-time snapshot of store health.
type Stats struct {
	ColdStart   bool  // true when no usable prior state was loaded
	LoadMillis  int64 // wall time spent replaying the log at Open
	LoadedBytes int64 // bytes of usable log replayed

	LoadedLemmas      int64
	LoadedCores       int64
	LoadedVerdicts    int64
	LoadedConsistency int64
	LoadedOutcomes    int64
	LoadedSearches    int64

	Appended     int64 // records accepted into the queue this lifetime
	Deduped      int64 // appends skipped because an identical record exists
	Dropped      int64 // appends lost to a full queue or a failed flush
	QueueDepth   int64 // records currently awaiting flush
	Flushes      int64
	FlushErrors  int64
	FlushRetries int64 // failed flushes whose batch was requeued

	Compactions    int64 // completed log compactions this lifetime
	CompactErrors  int64 // compactions aborted by an error
	ReclaimedBytes int64 // log bytes reclaimed by compaction
	LogBytes       int64 // current on-disk log size
	LiveBytes      int64 // estimated bytes of the live, deduplicated record set
}

// record is the one-envelope wire form of every log line.
type record struct {
	T string `json:"t"` // "hdr" | "lem" | "core" | "vrd" | "cons" | "out" | "srch"

	// hdr
	Version int    `json:"version,omitempty"`
	Params  string `json:"params,omitempty"`

	// lem: Skel = skeleton FormulaKey. vrd/cons: Skel = formula FormulaKey.
	// out: Skel = problem key (X-VS3-Problem-Key SHA-256), Method set.
	// srch: Skel = search key (see Store.Search), Sols set.
	Skel   string `json:"skel,omitempty"`
	Method string `json:"method,omitempty"`

	Lins []lia.Lin `json:"lins,omitempty"`
	Vals []bool    `json:"vals,omitempty"`

	V *bool `json:"v,omitempty"`

	Unknown string   `json:"unknown,omitempty"`
	Preds   []string `json:"preds,omitempty"`

	Resp json.RawMessage `json:"resp,omitempty"`

	// Sols is a pointer so an empty list ("the search found no solution")
	// encodes as [] and stays distinct from an absent field.
	Sols *[][]int `json:"sols,omitempty"`
}

// Store is the on-disk knowledge base. All methods are safe for concurrent
// use; lookups are read-locked map hits, appends are queue pushes.
type Store struct {
	dir  string
	opts Options

	mu       sync.RWMutex
	lemmas   map[string][]Lemma // skeleton key -> lemmas
	verdicts map[string]bool    // formula key -> valid?
	cons     map[string]bool    // formula key -> consistent?
	outcomes map[string][]byte  // problemKey \x00 method -> response JSON
	searches map[string][][]int // search key -> solutions as item indices
	cores    []Core

	// seen dedups lemma/core appends within this lifetime only. It is NOT
	// rebuilt from the log at Open (that would pin an exact key string per
	// record ever written — RAM proportional to log history), so a hot
	// skeleton's lemma vectors re-learned in a later lifetime re-append;
	// compaction is the cross-lifetime deduplicator. Verdict, consistency,
	// and outcome appends dedup exactly (and for free) against their loaded
	// maps.
	seen map[string]struct{}

	qmu   sync.Mutex
	queue [][]byte // encoded lines awaiting flush
	// held keeps flush from writing while a compaction is between its
	// live-set snapshot and the generation swap: a line written to the old
	// generation then would vanish with it (see Compact).
	held         bool
	file         *os.File
	logBytes     int64                     // on-disk size of the well-formed log prefix
	flushRetries int                       // consecutive failed flushes of the current batch
	writeHook    func([]byte) (int, error) // test seam; nil means file.Write

	// cmu serializes compactions (manual Compact vs the flusher trigger).
	cmu sync.Mutex
	// compactHook, when non-nil, is called at each compaction stage; a true
	// return aborts in place, leaving exactly the on-disk state a crash at
	// that point would (test seam for crash-recovery coverage).
	compactHook func(stage string) bool

	dropMu        sync.Mutex
	lastDropWarn  time.Time
	droppedAtWarn int64

	digest digestCache

	stop    chan struct{}
	done    chan struct{}
	closed  atomic.Bool
	closeMu sync.Mutex

	smu sync.Mutex
	st  Stats
}

// Open loads (or creates) the knowledge store in dir. It never fails on a
// damaged prior store: corruption falls back to cold start with a logged
// warning. It fails only on real I/O errors (unwritable directory).
func (o *Options) normalize() {
	if o.FlushInterval <= 0 {
		o.FlushInterval = defaultFlushInterval
	}
	if o.DropWarnInterval <= 0 {
		o.DropWarnInterval = defaultDropWarnInterval
	}
	if o.CompactMinBytes <= 0 {
		o.CompactMinBytes = defaultCompactMinBytes
	}
	if o.CompactGarbageRatio <= 0 || o.CompactGarbageRatio > 1 {
		o.CompactGarbageRatio = defaultCompactGarbageRatio
	}
}

func Open(dir string, opts Options) (*Store, error) {
	opts.normalize()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:  dir,
		opts: opts,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.reset()
	// A stale next-generation file is a compaction that never completed its
	// rename: the current log is intact and authoritative, so the tmp is
	// discarded (whether torn mid-write or complete-but-unrenamed).
	tmp := filepath.Join(dir, tmpName)
	if err := os.Remove(tmp); err == nil {
		s.logf("store: removed stale compaction file %s (interrupted compaction; current log is authoritative)", tmp)
	}

	start := time.Now()
	goodBytes, freshHeader := s.load()
	s.st.LoadMillis = time.Since(start).Milliseconds()
	s.st.LoadedBytes = goodBytes

	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// Truncate away any corrupt tail so future appends extend a log whose
	// every prefix is well-formed, then position at the end.
	if err := f.Truncate(goodBytes); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	if _, err := f.Seek(goodBytes, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	s.file = f
	s.logBytes = goodBytes
	if freshHeader {
		hdr := record{T: "hdr", Version: version, Params: opts.Params}
		line, _ := encode(hdr)
		if _, err := f.Write(line); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: %w", err)
		}
		s.logBytes += int64(len(line))
		s.st.LiveBytes += int64(len(line))
	}
	s.st.LogBytes = s.logBytes
	s.digest.bump()
	go s.flusher()
	return s, nil
}

func (s *Store) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// reset empties the in-memory knowledge.
func (s *Store) reset() {
	s.lemmas = map[string][]Lemma{}
	s.verdicts = map[string]bool{}
	s.cons = map[string]bool{}
	s.outcomes = map[string][]byte{}
	s.searches = map[string][][]int{}
	s.cores = nil
	s.seen = map[string]struct{}{}
}

// load replays the log into memory. It returns the byte offset of the last
// well-formed record (the file is truncated there before appending) and
// whether a fresh header must be written (empty or sidelined file).
func (s *Store) load() (goodBytes int64, freshHeader bool) {
	path := filepath.Join(s.dir, logName)
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		s.st.ColdStart = true
		return 0, true
	}

	sideline := func(reason string) (int64, bool) {
		aside := path + ".corrupt"
		if err := os.Rename(path, aside); err == nil {
			s.logf("store: %s; sidelined %s to %s, starting cold", reason, path, aside)
		} else {
			os.Remove(path)
			s.logf("store: %s; removed %s, starting cold", reason, path)
		}
		// Drop anything replayed before the problem was detected: a store
		// whose header we cannot trust contributes nothing.
		s.reset()
		s.st = Stats{ColdStart: true}
		return 0, true
	}

	// loadSeen dedups replay only: it is discarded when load returns, so
	// the resident store never pins a key string per historical record.
	// Duplicate records on disk (re-learned lemmas from later lifetimes,
	// pre-compaction generations) collapse here and are counted as garbage
	// via the LiveBytes/LogBytes gap that drives auto-compaction.
	loadSeen := map[string]struct{}{}

	var off int64
	first := true
	for off < int64(len(data)) {
		rest := data[off:]
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 || nl > maxLineBytes {
			// Torn tail (crash mid-append) or absurd line: stop here and
			// truncate the tail away. Everything before it is good.
			if first {
				return sideline("unreadable header line")
			}
			s.logf("store: truncating %d corrupt trailing bytes of %s", int64(len(data))-off, path)
			break
		}
		line := rest[:nl]
		rec, ok := decode(line)
		if !ok {
			if first {
				return sideline("corrupt header record")
			}
			s.logf("store: truncating corrupt record at offset %d of %s", off, path)
			break
		}
		if first {
			if rec.T != "hdr" {
				return sideline("missing header record")
			}
			if rec.Version != version {
				return sideline(fmt.Sprintf("version %d (want %d)", rec.Version, version))
			}
			if rec.Params != s.opts.Params {
				return sideline("solver params changed since the store was written")
			}
			first = false
			s.st.LiveBytes += int64(nl) + 1
			off += int64(nl) + 1
			continue
		}
		if s.replay(rec, loadSeen) {
			s.st.LiveBytes += int64(nl) + 1
		}
		off += int64(nl) + 1
	}
	if first {
		// File existed but held no complete header line.
		return sideline("truncated header")
	}
	return off, false
}

// replay folds one decoded record into the in-memory maps, deduping against
// loadSeen (first record wins). It reports whether the record was accepted —
// a rejected record is on-disk garbage the compactor can reclaim.
func (s *Store) replay(rec record, loadSeen map[string]struct{}) bool {
	switch rec.T {
	case "lem":
		if rec.Skel == "" || len(rec.Lins) == 0 || len(rec.Lins) != len(rec.Vals) {
			return false
		}
		for i := range rec.Lins {
			if rec.Lins[i].Coef == nil {
				rec.Lins[i].Coef = map[string]int64{}
			}
		}
		lem := Lemma{Lins: rec.Lins, Vals: rec.Vals}
		k := lemmaKey(rec.Skel, lem)
		if _, dup := loadSeen[k]; dup || len(s.lemmas[rec.Skel]) >= maxLemmasPerSkel {
			return false
		}
		loadSeen[k] = struct{}{}
		s.lemmas[rec.Skel] = append(s.lemmas[rec.Skel], lem)
		s.st.LoadedLemmas++
	case "core":
		if rec.Unknown == "" || len(rec.Preds) == 0 {
			return false
		}
		c := Core{Unknown: rec.Unknown, Preds: rec.Preds}
		k := coreKey(c)
		if _, dup := loadSeen[k]; dup || len(s.cores) >= maxCores {
			return false
		}
		loadSeen[k] = struct{}{}
		s.cores = append(s.cores, c)
		s.st.LoadedCores++
	case "vrd":
		if rec.Skel == "" || rec.V == nil {
			return false
		}
		if _, dup := s.verdicts[rec.Skel]; dup {
			return false
		}
		s.verdicts[rec.Skel] = *rec.V
		s.st.LoadedVerdicts++
	case "cons":
		if rec.Skel == "" || rec.V == nil {
			return false
		}
		if _, dup := s.cons[rec.Skel]; dup {
			return false
		}
		s.cons[rec.Skel] = *rec.V
		s.st.LoadedConsistency++
	case "out":
		if rec.Skel == "" || rec.Method == "" || len(rec.Resp) == 0 {
			return false
		}
		ok := rec.Skel + "\x00" + rec.Method
		if _, dup := s.outcomes[ok]; dup {
			return false
		}
		s.outcomes[ok] = append([]byte(nil), rec.Resp...)
		s.st.LoadedOutcomes++
	case "srch":
		if rec.Skel == "" || rec.Sols == nil || !validSearch(*rec.Sols) {
			return false
		}
		// Last record wins: a later one replaced a result its reader
		// rejected, and the superseded line is garbage.
		if old, dup := s.searches[rec.Skel]; dup {
			s.st.LiveBytes -= searchLineLen(rec.Skel, old)
		} else {
			s.st.LoadedSearches++
		}
		s.searches[rec.Skel] = *rec.Sols
	default:
		// Unknown record type from a future minor revision: skip, do not
		// treat as corruption (and do not count it live — a compaction
		// under this binary would not preserve it).
		return false
	}
	return true
}

// --- encoding ---

// encode renders a record as "%08x <json>\n" where the hex prefix is the
// IEEE CRC32 of the JSON payload.
func encode(rec record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 0, len(payload)+10)
	line = fmt.Appendf(line, "%08x ", crc32.ChecksumIEEE(payload))
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// decode parses one line (without trailing newline), verifying the CRC.
func decode(line []byte) (record, bool) {
	var rec record
	if len(line) < 10 || line[8] != ' ' {
		return rec, false
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &want); err != nil {
		return rec, false
	}
	payload := line[9:]
	if crc32.ChecksumIEEE(payload) != want {
		return rec, false
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, false
	}
	return rec, true
}

func lemmaKey(skel string, lem Lemma) string {
	var b strings.Builder
	b.WriteString("l|")
	b.WriteString(skel)
	for i, l := range lem.Lins {
		b.WriteByte('|')
		b.WriteString(l.Key())
		if lem.Vals[i] {
			b.WriteByte('+')
		} else {
			b.WriteByte('-')
		}
	}
	return b.String()
}

// validSearch reports whether every solution of a search record is a
// strictly increasing list of non-negative item indices.
func validSearch(sols [][]int) bool {
	for _, sel := range sols {
		for i, k := range sel {
			if k < 0 || (i > 0 && k <= sel[i-1]) {
				return false
			}
		}
	}
	return true
}

// searchLineLen is the log-line size of a search record, for the live-bytes
// estimate when a later record supersedes it.
func searchLineLen(key string, sols [][]int) int64 {
	line, _ := encode(record{T: "srch", Skel: key, Sols: &sols})
	return int64(len(line))
}

func coreKey(c Core) string {
	preds := append([]string(nil), c.Preds...)
	sort.Strings(preds)
	return "k|" + c.Unknown + "|" + strings.Join(preds, "|")
}

// --- lookups ---

// Lemmas returns the persisted theory lemmas for a skeleton (shared slice;
// callers must not mutate).
func (s *Store) Lemmas(skel string) []Lemma {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lemmas[skel]
}

// NumLemmas reports how many lemma records are held across all skeletons.
func (s *Store) NumLemmas() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, ls := range s.lemmas {
		n += len(ls)
	}
	return n
}

// Verdict returns the persisted validity verdict for a formula key.
func (s *Store) Verdict(key string) (valid, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	valid, ok = s.verdicts[key]
	return
}

// Consistency returns the persisted consistency verdict for a formula key.
func (s *Store) Consistency(key string) (sat, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sat, ok = s.cons[key]
	return
}

// Outcome returns the persisted response body for a (problem key, method).
func (s *Store) Outcome(problemKey, method string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.outcomes[problemKey+"\x00"+method]
	return b, ok
}

// Search returns the persisted result of one optimal-negative-solution
// search: the emitted solutions in order, each a sorted list of indices into
// the searcher's item universe. An empty list means the search found no
// solution; ok=false means there is no record. The key names everything the
// result depends on besides solver verdicts (see DESIGN.md §15). The store
// does not check that the listed solutions are valid: the reader re-probes
// them before trusting the record (shared slices; callers must not mutate).
func (s *Store) Search(key string) (sols [][]int, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sols, ok = s.searches[key]
	return
}

// Cores returns all persisted portable core items (shared slice; callers
// must not mutate).
func (s *Store) Cores() []Core {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cores
}

// --- appends (write-behind) ---

// AppendLemma persists a theory lemma under a skeleton key. The Lin vectors
// are deep-copied at enqueue time, so the caller may keep mutating its own.
func (s *Store) AppendLemma(skel string, lem Lemma) {
	if s == nil || skel == "" || len(lem.Lins) == 0 || len(lem.Lins) != len(lem.Vals) {
		return
	}
	cp := Lemma{Lins: make([]lia.Lin, len(lem.Lins)), Vals: append([]bool(nil), lem.Vals...)}
	for i, l := range lem.Lins {
		cp.Lins[i] = l.Clone()
	}
	k := lemmaKey(skel, cp)
	s.mu.Lock()
	if _, dup := s.seen[k]; dup || len(s.lemmas[skel]) >= maxLemmasPerSkel {
		s.mu.Unlock()
		s.noteDedup()
		return
	}
	s.seen[k] = struct{}{}
	s.lemmas[skel] = append(s.lemmas[skel], cp)
	s.mu.Unlock()
	s.push(record{T: "lem", Skel: skel, Lins: cp.Lins, Vals: cp.Vals})
}

// AppendVerdict persists a validity verdict for a formula key. Callers must
// not append verdicts computed under a fired Stop hook.
func (s *Store) AppendVerdict(key string, valid bool) {
	if s == nil || key == "" {
		return
	}
	s.mu.Lock()
	if _, dup := s.verdicts[key]; dup {
		s.mu.Unlock()
		s.noteDedup()
		return
	}
	s.verdicts[key] = valid
	s.mu.Unlock()
	v := valid
	s.push(record{T: "vrd", Skel: key, V: &v})
}

// AppendConsistency persists a consistency (satisfiability) verdict for a
// formula key, under the same no-Stop rule as AppendVerdict.
func (s *Store) AppendConsistency(key string, sat bool) {
	if s == nil || key == "" {
		return
	}
	s.mu.Lock()
	if _, dup := s.cons[key]; dup {
		s.mu.Unlock()
		s.noteDedup()
		return
	}
	s.cons[key] = sat
	s.mu.Unlock()
	v := sat
	s.push(record{T: "cons", Skel: key, V: &v})
}

// AppendOutcome persists a whole solved-problem response body keyed by the
// problem key and method. Callers must only pass completed (non-aborted)
// outcomes.
func (s *Store) AppendOutcome(problemKey, method string, resp []byte) {
	if s == nil || problemKey == "" || method == "" || len(resp) == 0 {
		return
	}
	k := problemKey + "\x00" + method
	cp := append([]byte(nil), resp...)
	s.mu.Lock()
	if _, dup := s.outcomes[k]; dup {
		s.mu.Unlock()
		s.noteDedup()
		return
	}
	s.outcomes[k] = cp
	s.mu.Unlock()
	s.digest.bump()
	s.push(record{T: "out", Skel: problemKey, Method: method, Resp: cp})
}

// AppendSearch persists a search result under its key, replacing any
// different earlier record (one its reader rejected). Callers must not
// append results of a search cut short by a fired Stop hook.
func (s *Store) AppendSearch(key string, sols [][]int) {
	if s == nil || key == "" || !validSearch(sols) {
		return
	}
	cp := make([][]int, len(sols))
	for i, sel := range sols {
		cp[i] = append([]int{}, sel...)
	}
	s.mu.Lock()
	old, dup := s.searches[key]
	if dup && equalSearch(old, cp) {
		s.mu.Unlock()
		s.noteDedup()
		return
	}
	s.searches[key] = cp
	s.mu.Unlock()
	if dup {
		s.smu.Lock()
		s.st.LiveBytes -= searchLineLen(key, old)
		s.smu.Unlock()
	}
	s.push(record{T: "srch", Skel: key, Sols: &cp})
}

func equalSearch(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// AppendCore persists a portable unsat-core item.
func (s *Store) AppendCore(c Core) {
	if s == nil || c.Unknown == "" || len(c.Preds) == 0 {
		return
	}
	c.Preds = append([]string(nil), c.Preds...)
	k := coreKey(c)
	s.mu.Lock()
	if _, dup := s.seen[k]; dup || len(s.cores) >= maxCores {
		s.mu.Unlock()
		s.noteDedup()
		return
	}
	s.seen[k] = struct{}{}
	s.cores = append(s.cores, c)
	s.mu.Unlock()
	s.push(record{T: "core", Unknown: c.Unknown, Preds: c.Preds})
}

func (s *Store) noteDedup() {
	s.smu.Lock()
	s.st.Deduped++
	s.smu.Unlock()
}

// push marshals a record and enqueues it for the flusher. Marshaling happens
// here (not in the flusher) so the record is immutable from enqueue on.
func (s *Store) push(rec record) {
	line, err := encode(rec)
	if err != nil {
		s.logf("store: dropping unencodable record: %v", err)
		return
	}
	s.qmu.Lock()
	if len(s.queue) >= maxQueuedRecords {
		s.qmu.Unlock()
		s.smu.Lock()
		s.st.Dropped++
		total := s.st.Dropped
		s.smu.Unlock()
		s.warnDrop(total)
		return
	}
	s.queue = append(s.queue, line)
	s.qmu.Unlock()
	s.smu.Lock()
	s.st.Appended++
	s.st.LiveBytes += int64(len(line))
	s.smu.Unlock()
}

// warnDrop surfaces queue-full data loss at the log level, rate-limited: the
// first drop logs immediately, later drops at most once per DropWarnInterval
// (the intermediate count is carried into the next warning, so no loss goes
// unreported).
func (s *Store) warnDrop(total int64) {
	s.dropMu.Lock()
	now := time.Now()
	if !s.lastDropWarn.IsZero() && now.Sub(s.lastDropWarn) < s.opts.DropWarnInterval {
		s.dropMu.Unlock()
		return
	}
	since := total - s.droppedAtWarn
	s.lastDropWarn = now
	s.droppedAtWarn = total
	s.dropMu.Unlock()
	s.logf("store: write-behind queue full; dropped %d records since last warning (%d total this lifetime)", since, total)
}

// flusher drains the queue every FlushInterval until Close, and triggers a
// compaction when the log crosses the size/garbage-ratio threshold.
func (s *Store) flusher() {
	defer close(s.done)
	t := time.NewTicker(s.opts.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.flush(s.opts.Fsync)
			s.maybeCompact()
		case <-s.stop:
			return
		}
	}
}

// flush writes every queued line; sync forces an fsync afterwards. The queue
// is cleared only after the write succeeds: on error the batch stays queued
// for the next attempt (a transient ENOSPC must not lose records), bounded
// by maxFlushRetries, after which the batch is dropped and counted.
func (s *Store) flush(sync bool) error {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	var firstErr error
	if len(s.queue) > 0 && !s.held {
		buf := make([]byte, 0, 4096)
		for _, line := range s.queue {
			buf = append(buf, line...)
		}
		n, err := s.write(buf)
		s.smu.Lock()
		s.st.Flushes++
		if err != nil {
			s.st.FlushErrors++
		}
		s.smu.Unlock()
		if err != nil {
			firstErr = err
			// A partial write leaves a torn line at the tail; retrying the
			// whole batch after it would wedge replay at the tear (CRC
			// mismatch truncates there). Roll the file back to the last
			// well-formed prefix so the retry extends a clean log.
			requeue := true
			if n > 0 {
				if terr := s.file.Truncate(s.logBytes); terr != nil {
					// Cannot remove the torn tail: dropping the batch keeps
					// the tear as the final bytes, which the next open
					// truncates away — degraded, never corrupting.
					requeue = false
					s.logf("store: flush: rollback of torn tail failed (%v); dropping %d queued records", terr, len(s.queue))
				} else if _, serr := s.file.Seek(s.logBytes, 0); serr != nil {
					requeue = false
					s.logf("store: flush: reposition after rollback failed (%v); dropping %d queued records", serr, len(s.queue))
				}
			}
			if requeue {
				s.flushRetries++
				s.smu.Lock()
				s.st.FlushRetries++
				s.smu.Unlock()
				if s.flushRetries <= maxFlushRetries {
					s.logf("store: flush: %v; %d records requeued (attempt %d/%d)",
						err, len(s.queue), s.flushRetries, maxFlushRetries)
					return firstErr
				}
				s.logf("store: flush failed %d consecutive times (%v); dropping %d queued records",
					s.flushRetries, err, len(s.queue))
			}
			dropped := int64(len(s.queue))
			s.queue = s.queue[:0]
			s.flushRetries = 0
			s.smu.Lock()
			s.st.Dropped += dropped
			total := s.st.Dropped
			s.smu.Unlock()
			s.warnDrop(total)
			return firstErr
		}
		s.queue = s.queue[:0]
		s.flushRetries = 0
		s.logBytes += int64(n)
		s.smu.Lock()
		s.st.LogBytes = s.logBytes
		s.smu.Unlock()
	}
	if sync && firstErr == nil {
		if err := s.file.Sync(); err != nil {
			firstErr = err
			s.smu.Lock()
			s.st.FlushErrors++
			s.smu.Unlock()
		}
	}
	if firstErr != nil {
		s.logf("store: flush: %v", firstErr)
	}
	return firstErr
}

// write is the flusher's file append, routed through the test seam when one
// is installed. Called with qmu held.
func (s *Store) write(buf []byte) (int, error) {
	if s.writeHook != nil {
		return s.writeHook(buf)
	}
	return s.file.Write(buf)
}

// Flush synchronously drains the write-behind queue and fsyncs. Safe to call
// at any time, including after Close (then a no-op).
func (s *Store) Flush() error {
	if s == nil {
		return nil
	}
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed.Load() {
		return nil
	}
	// Wait out a compaction in flight, which holds the queue back until
	// its generation swap.
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.flush(true)
}

// Close stops the flusher, drains and fsyncs the queue, and closes the file.
// Idempotent.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed.Load() {
		return nil
	}
	s.closed.Store(true)
	close(s.stop)
	<-s.done
	// Wait out any manual Compact in flight: it re-checks closed before the
	// generation swap, so from here the file handle is stable.
	s.cmu.Lock()
	s.cmu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	err := s.flush(true)
	if cerr := s.file.Close(); err == nil {
		err = cerr
	}
	return err
}

// Dir returns the directory the store lives in.
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Stats returns a point-in-time snapshot of store health.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.smu.Lock()
	st := s.st
	s.smu.Unlock()
	s.qmu.Lock()
	st.QueueDepth = int64(len(s.queue))
	st.LogBytes = s.logBytes
	s.qmu.Unlock()
	return st
}
