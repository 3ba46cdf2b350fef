package rpc

import (
	"bufio"
	"bytes"
	"testing"
)

// The VS3R decoders read bytes straight off the network, so each fuzzer
// holds two properties: no input panics, and whatever decodes re-encodes
// to bytes that decode to the same value. Seeds live in testdata/fuzz
// (the rpc_test.go vectors plus pinned regressions); `make fuzz-smoke`
// runs each target briefly.

func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(&byteReader{r: bufio.NewReader(bytes.NewReader(data))})
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr.typ, fr.stream, fr.payload); err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		got, err := readFrame(&byteReader{r: bufio.NewReader(&buf)})
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if got.typ != fr.typ || got.stream != fr.stream || !bytes.Equal(got.payload, fr.payload) {
			t.Fatalf("round trip: got %+v want %+v", got, fr)
		}
	})
}

func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := decodeRequest(payload)
		if err != nil {
			return
		}
		enc, err := encodeRequest(req)
		if err != nil {
			t.Fatalf("decoded request %+v does not re-encode: %v", req, err)
		}
		got, err := decodeRequest(enc)
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if got != req {
			t.Fatalf("round trip: got %+v want %+v", got, req)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		resp, err := decodeResponse(payload)
		if err != nil {
			return
		}
		// The router hands the status to http.ResponseWriter.WriteHeader,
		// which panics outside 100–999.
		if resp.Status < 100 || resp.Status > 999 {
			t.Fatalf("decoded status %d is not an HTTP status", resp.Status)
		}
		got, err := decodeResponse(encodeResponse(resp))
		if err != nil {
			t.Fatalf("re-encoded response does not decode: %v", err)
		}
		if got.Status != resp.Status || got.ProblemKey != resp.ProblemKey ||
			got.Backend != resp.Backend || !bytes.Equal(got.Body, resp.Body) {
			t.Fatalf("round trip: got %+v want %+v", got, resp)
		}
	})
}
