package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzStoreRecord feeds arbitrary log lines through the loader's per-line
// path: decode (CRC and JSON) then replay into a fresh in-memory store. It
// must never panic, and a record replay accepts must re-encode to a line
// that decodes to the same record. Seeds in testdata/fuzz/FuzzStoreRecord:
// one line per record type, a torn line and a bad CRC.
func FuzzStoreRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		rec, ok := decode(line)
		if !ok {
			return
		}
		s := &Store{}
		s.reset()
		if !s.replay(rec, map[string]struct{}{}) {
			return
		}
		enc, err := encode(rec)
		if err != nil {
			t.Fatalf("accepted record %+v does not re-encode: %v", rec, err)
		}
		got, ok := decode(bytes.TrimSuffix(enc, []byte("\n")))
		if !ok {
			t.Fatalf("re-encoded record does not decode: %q", enc)
		}
		// Marshal compacts a raw response body; compare it by content.
		if len(rec.Resp) > 0 {
			var want bytes.Buffer
			if err := json.Compact(&want, rec.Resp); err != nil {
				t.Fatalf("accepted response body is not JSON: %v", err)
			}
			if !bytes.Equal(got.Resp, want.Bytes()) {
				t.Fatalf("response body round trip: got %s want %s", got.Resp, want.Bytes())
			}
			rec.Resp, got.Resp = nil, nil
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, rec)
		}
	})
}

// FuzzParseBloomDigest feeds arbitrary digest strings and keys through the
// outcome-digest decoder the router runs on every backend's /v1/stats. A
// digest the parser accepts must answer Contains for any key without
// panicking, and the digest buildBloom writes for a key set must parse and
// claim every key in it (a bloom filter has no false negatives). Seeds in
// testdata/fuzz/FuzzParseBloomDigest: buildBloom outputs and malformed
// digests.
func FuzzParseBloomDigest(f *testing.F) {
	f.Fuzz(func(t *testing.T, s, key string) {
		if d, err := ParseBloomDigest(s); err == nil {
			d.Contains(key)
			d.Contains(s)
		}
		keys := map[string]struct{}{key: {}, s: {}, key + s: {}}
		enc := buildBloom(keys)
		d, err := ParseBloomDigest(enc)
		if err != nil {
			t.Fatalf("buildBloom output %q does not parse: %v", enc, err)
		}
		for k := range keys {
			if !d.Contains(k) {
				t.Fatalf("digest %q does not claim its key %q", enc, k)
			}
		}
	})
}

// FuzzStoreHeader writes fuzzed bytes as the header line of a store file
// that holds one verdict record after it (an empty input is an empty file)
// and opens the store. Open must never panic or fail: either it warms — the
// header line is a current header and the verdict loads — or it starts cold
// and writes a fresh header. Either way the file then begins with a current
// header line. Seeds in testdata/fuzz/FuzzStoreHeader: a current header, a
// header with other StoreParams, a truncated header and an empty file.
func FuzzStoreHeader(f *testing.F) {
	const params = "p1"
	yes := true
	vrd, err := encode(record{T: "vrd", Skel: "k", V: &yes})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, header []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, logName)
		var file []byte
		if len(header) > 0 {
			file = append(append(append(file, header...), '\n'), vrd...)
		}
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{Params: params})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		_, loaded := s.Verdict("k")
		cold := s.Stats().ColdStart
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if cold && loaded {
			t.Fatal("cold start kept a record of the rejected file")
		}
		if !cold && !loaded && !bytes.Contains(header, []byte("\n")) {
			t.Fatal("warm start lost the record after a one-line header")
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		line, _, _ := bytes.Cut(data, []byte("\n"))
		hdr, ok := decode(line)
		if !ok || hdr.T != "hdr" || hdr.Version != version || hdr.Params != params {
			t.Fatalf("store file after open (cold=%v) begins with %q, not a current header", cold, line)
		}
		if first, _, _ := bytes.Cut(header, []byte("\n")); !cold && !bytes.Equal(line, first) {
			t.Fatalf("warm start rewrote the header %q as %q", first, line)
		}
	})
}
