// Package rpc is the binary transport of the serving tier: a dependency-free,
// length-prefixed framing protocol carrying verify/preconditions calls over
// persistent multiplexed TCP connections. HTTP/JSON remains the public
// surface; rpc exists for high-fan-in internal callers (cmd/vs3router fanning
// requests over a fleet, cmd/vs3load driving it) where per-request connection
// setup, header parsing, and one-request-per-roundtrip framing dominate the
// warm path the engine has already driven to sub-millisecond (see DESIGN.md
// §16).
//
// Connection establishment is a 5-byte handshake in each direction — the
// 4-byte magic "VS3R" followed by a protocol version byte. A peer that
// answers anything else (an HTTP server, an older build) is not speaking
// rpc; clients surface that as ErrNotRPC, and callers treat the peer as
// unable to serve.
//
// After the handshake the connection carries frames, each:
//
//	uvarint  length of the remainder (type + stream + payload)
//	byte     frame type
//	uvarint  stream ID
//	...      payload
//
// Streams multiplex: a client opens a stream per call with a REQ frame under
// a connection-unique monotonically increasing ID, and the server answers with
// exactly one RESP frame for that ID, in whatever order calls complete. A
// CANCEL frame from the client is the binary equivalent of an HTTP client
// disconnect: the server cancels the stream's context, which the serving
// layer bridges into the engine's cooperative Stop — the run is reported
// aborted (status 499), never as a false "no invariant found". PING/PONG
// probe liveness; GOAWAY tells the peer the connection is draining and no
// new streams should be opened on it.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Protocol constants. There is no version negotiation — a mismatch is a
// handshake failure, which callers treat as "not an rpc peer".
const (
	// Magic prefixes the handshake in both directions.
	Magic = "VS3R"
	// Version is the only protocol version this build speaks.
	Version = 1
)

// Frame types.
const (
	frameReq    = 0x01 // client → server: open a stream with a request
	frameResp   = 0x02 // server → client: the stream's single response
	frameCancel = 0x03 // client → server: abandon a stream (half-close)
	framePing   = 0x04 // either direction: liveness probe (stream = nonce)
	framePong   = 0x05 // reply to a PING, echoing its nonce
	frameGoAway = 0x06 // server → client: draining, open no new streams
)

// maxFrame bounds one frame's encoded size. Spec files are at most ~1MB over
// HTTP (serve.maxSpecBytes); responses carry stats JSON. 16MB leaves room
// without letting a corrupt length prefix allocate unbounded memory.
const maxFrame = 16 << 20

// Request kinds.
const (
	// KindVerify runs one algorithm on a spec (the POST /v1/verify analog).
	KindVerify = "verify"
	// KindPreconditions enumerates maximally-weak preconditions (the
	// POST /v1/preconditions analog).
	KindPreconditions = "preconditions"
	// KindDigest fetches the backend's solved-outcome bloom digest (the
	// store_digest field of GET /v1/stats). No spec; answered without
	// leasing a verifier session, so the router's sweep can refresh digests
	// cheaply over an already-open connection.
	KindDigest = "digest"
)

// Request is one call. It mirrors the HTTP request surface: Spec and Method
// as serve.VerifyRequest carries them, TimeoutMS the per-run deadline the
// server clamps, Client the fair-queueing identity (the X-VS3-Client analog).
type Request struct {
	Kind      string
	Method    string
	TimeoutMS int64
	Client    string
	Spec      string
}

// Response is one call's answer. Status is the HTTP status an equivalent
// HTTP request would have carried (200, 400, 429, 499, 504, ...); Body is
// the exact JSON body that request would have returned (serve.VerifyResponse,
// serve.PreconditionsResponse, or the {"error": ...} shape), so one decoder
// reads either transport. ProblemKey and Backend are the X-VS3-Problem-Key /
// X-VS3-Backend header analogs.
type Response struct {
	Status     int
	ProblemKey string
	Backend    string
	Body       []byte
}

// ErrNotRPC reports that the remote peer did not complete the rpc handshake
// (wrong magic or version) — it is probably an HTTP-only or older backend.
// Callers treat it like any transport failure: the peer cannot serve.
var ErrNotRPC = errors.New("rpc: peer did not complete the VS3R handshake")

// handshake writes our 5 bytes and checks the peer's. Symmetric: both ends
// call it (the server after Accept, the client after Dial).
func handshake(rw io.ReadWriter) error {
	hello := append([]byte(Magic), Version)
	if _, err := rw.Write(hello); err != nil {
		return fmt.Errorf("rpc: handshake write: %w", err)
	}
	var peer [5]byte
	if _, err := io.ReadFull(rw, peer[:]); err != nil {
		return ErrNotRPC
	}
	if string(peer[:4]) != Magic || peer[4] != Version {
		return ErrNotRPC
	}
	return nil
}

// frame is one decoded frame.
type frame struct {
	typ     byte
	stream  uint64
	payload []byte
}

// readFrame reads one length-prefixed frame from br. The payload slice is
// freshly allocated (frames cross goroutine boundaries).
func readFrame(br *byteReader) (frame, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return frame{}, err
	}
	if n < 1 || n > maxFrame {
		return frame{}, fmt.Errorf("rpc: frame length %d out of range", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return frame{}, err
	}
	typ := buf[0]
	stream, used := binary.Uvarint(buf[1:])
	if used <= 0 {
		return frame{}, errors.New("rpc: truncated stream id")
	}
	return frame{typ: typ, stream: stream, payload: buf[1+used:]}, nil
}

// writeFrame encodes and writes one frame. The caller serializes writers
// (both conn sides hold a write mutex), so a frame is always written whole.
func writeFrame(w io.Writer, typ byte, stream uint64, payload []byte) error {
	var head [2 * binary.MaxVarintLen64]byte
	streamLen := binary.PutUvarint(head[binary.MaxVarintLen64:], stream)
	total := uint64(1 + streamLen + len(payload))
	if total > maxFrame {
		return fmt.Errorf("rpc: frame of %d bytes exceeds the %d-byte limit", total, maxFrame)
	}
	lenLen := binary.PutUvarint(head[:], total)
	buf := make([]byte, 0, int(total)+lenLen)
	buf = append(buf, head[:lenLen]...)
	buf = append(buf, typ)
	buf = append(buf, head[binary.MaxVarintLen64:binary.MaxVarintLen64+streamLen]...)
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	return err
}

// byteReader adapts a bufio-like reader for binary.ReadUvarint while keeping
// io.Reader for payload reads. (bufio.Reader implements both; this interface
// keeps the dependency explicit.)
type byteReader struct {
	r interface {
		io.Reader
		io.ByteReader
	}
}

func (b *byteReader) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *byteReader) ReadByte() (byte, error)    { return b.r.ReadByte() }

// appendString appends a uvarint-length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// takeString consumes a uvarint-length-prefixed string.
func takeString(buf []byte) (string, []byte, error) {
	n, used := binary.Uvarint(buf)
	if used <= 0 || n > uint64(len(buf)-used) {
		return "", nil, errors.New("rpc: truncated string")
	}
	return string(buf[used : used+int(n)]), buf[used+int(n):], nil
}

// encodeRequest renders a REQ payload:
//
//	kind byte (1 = verify, 2 = preconditions)
//	uvarint timeout_ms
//	string  method
//	string  client
//	string  spec
func encodeRequest(req Request) ([]byte, error) {
	var kind byte
	switch req.Kind {
	case KindVerify:
		kind = 1
	case KindPreconditions:
		kind = 2
	case KindDigest:
		kind = 3
	default:
		return nil, fmt.Errorf("rpc: unknown request kind %q", req.Kind)
	}
	buf := make([]byte, 0, 16+len(req.Method)+len(req.Client)+len(req.Spec))
	buf = append(buf, kind)
	buf = binary.AppendUvarint(buf, uint64(max64(req.TimeoutMS, 0)))
	buf = appendString(buf, req.Method)
	buf = appendString(buf, req.Client)
	buf = appendString(buf, req.Spec)
	return buf, nil
}

func decodeRequest(payload []byte) (Request, error) {
	if len(payload) < 1 {
		return Request{}, errors.New("rpc: empty request payload")
	}
	var req Request
	switch payload[0] {
	case 1:
		req.Kind = KindVerify
	case 2:
		req.Kind = KindPreconditions
	case 3:
		req.Kind = KindDigest
	default:
		return Request{}, fmt.Errorf("rpc: unknown request kind byte %d", payload[0])
	}
	rest := payload[1:]
	timeout, used := binary.Uvarint(rest)
	if used <= 0 {
		return Request{}, errors.New("rpc: truncated timeout")
	}
	if timeout > math.MaxInt64 {
		return Request{}, fmt.Errorf("rpc: timeout %d ms out of range", timeout)
	}
	req.TimeoutMS = int64(timeout)
	var err error
	if req.Method, rest, err = takeString(rest[used:]); err != nil {
		return Request{}, err
	}
	if req.Client, rest, err = takeString(rest); err != nil {
		return Request{}, err
	}
	if req.Spec, _, err = takeString(rest); err != nil {
		return Request{}, err
	}
	return req, nil
}

// encodeResponse renders a RESP payload:
//
//	uvarint status
//	string  problem key
//	string  backend id
//	string  body (JSON)
func encodeResponse(resp Response) []byte {
	buf := make([]byte, 0, 16+len(resp.ProblemKey)+len(resp.Backend)+len(resp.Body))
	buf = binary.AppendUvarint(buf, uint64(resp.Status))
	buf = appendString(buf, resp.ProblemKey)
	buf = appendString(buf, resp.Backend)
	buf = binary.AppendUvarint(buf, uint64(len(resp.Body)))
	return append(buf, resp.Body...)
}

func decodeResponse(payload []byte) (Response, error) {
	var resp Response
	status, used := binary.Uvarint(payload)
	if used <= 0 {
		return Response{}, errors.New("rpc: truncated status")
	}
	if status < 100 || status > 999 {
		// Callers hand the status to http.ResponseWriter.WriteHeader,
		// which panics outside the three-digit range.
		return Response{}, fmt.Errorf("rpc: status %d is not an HTTP status", status)
	}
	resp.Status = int(status)
	rest := payload[used:]
	var err error
	if resp.ProblemKey, rest, err = takeString(rest); err != nil {
		return Response{}, err
	}
	if resp.Backend, rest, err = takeString(rest); err != nil {
		return Response{}, err
	}
	n, used := binary.Uvarint(rest)
	if used <= 0 || n > uint64(len(rest)-used) {
		return Response{}, errors.New("rpc: truncated body")
	}
	resp.Body = append([]byte(nil), rest[used:used+int(n)]...)
	return resp, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
