package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range []Request{
		{Kind: KindVerify, Method: "lfp", TimeoutMS: 5000, Client: "router-1", Spec: "program P() {}"},
		{Kind: KindPreconditions, Spec: strings.Repeat("x", 100_000)},
		{Kind: KindVerify, Method: "cfp", Client: "", Spec: "s\n\"quoted\"\x00bytes"},
	} {
		payload, err := encodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeRequest(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got != req {
			t.Fatalf("round trip: got %+v want %+v", got, req)
		}
	}
	if _, err := encodeRequest(Request{Kind: "bogus"}); err == nil {
		t.Fatal("unknown kind encoded")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := Response{Status: 200, ProblemKey: "abc123", Backend: "vs3d-1", Body: []byte(`{"proved":true}`)}
	got, err := decodeResponse(encodeResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != resp.Status || got.ProblemKey != resp.ProblemKey ||
		got.Backend != resp.Backend || string(got.Body) != string(resp.Body) {
		t.Fatalf("round trip: got %+v want %+v", got, resp)
	}
	// Truncated payloads must error, not panic or over-read.
	payload := encodeResponse(resp)
	for cut := 0; cut < len(payload); cut++ {
		if _, err := decodeResponse(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
}

// handlerFunc adapts a func to Handler.
type handlerFunc func(ctx context.Context, req Request) Response

func (f handlerFunc) ServeRPC(ctx context.Context, req Request) Response { return f(ctx, req) }

// startServer boots a Server on an ephemeral port, returning its address,
// the server, and a stop func.
func startServer(t *testing.T, h Handler, cfg ServerConfig) (string, *Server, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(h, cfg)
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()
	stop := func() {
		ln.Close()
		srv.Close()
		<-done
	}
	return ln.Addr().String(), srv, stop
}

func echoHandler(ctx context.Context, req Request) Response {
	return Response{
		Status:     200,
		ProblemKey: "key:" + req.Spec,
		Backend:    "echo",
		Body:       []byte(fmt.Sprintf(`{"kind":%q,"method":%q,"client":%q}`, req.Kind, req.Method, req.Client)),
	}
}

func TestCallMultiplexed(t *testing.T) {
	addr, srv, stop := startServer(t, handlerFunc(echoHandler), ServerConfig{})
	defer stop()
	c := NewClient(addr, ClientConfig{MaxConns: 1})
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := fmt.Sprintf("spec-%d", i)
			resp, err := c.Call(context.Background(), Request{Kind: KindVerify, Method: "lfp", Client: "t", Spec: spec})
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if resp.Status != 200 || resp.ProblemKey != "key:"+spec || resp.Backend != "echo" {
				t.Errorf("call %d: %+v", i, resp)
			}
		}(i)
	}
	wg.Wait()
	if conns := c.OpenConns(); conns != 1 {
		t.Fatalf("64 concurrent calls used %d connections, want 1 (multiplexed)", conns)
	}
	// A stream leaves the gauge just after its response is written, so the
	// last ones may still be unwinding when their callers return.
	deadline := time.Now().Add(5 * time.Second)
	for {
		conns, streams, requests, _ := srv.Stats()
		if conns == 1 && streams == 0 && requests == 64 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server stats conns=%d streams=%d requests=%d", conns, streams, requests)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCancelPropagatesToHandler(t *testing.T) {
	sawCancel := make(chan struct{})
	started := make(chan struct{}, 1)
	h := handlerFunc(func(ctx context.Context, req Request) Response {
		started <- struct{}{}
		select {
		case <-ctx.Done():
			close(sawCancel)
			return Response{Status: 499, Body: []byte(`{"error":"aborted"}`)}
		case <-time.After(10 * time.Second):
			return Response{Status: 200}
		}
	})
	addr, srv, stop := startServer(t, h, ServerConfig{})
	defer stop()
	c := NewClient(addr, ClientConfig{})
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Call(ctx, Request{Kind: KindVerify, Spec: "slow"})
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call returned %v", err)
	}
	select {
	case <-sawCancel:
	case <-time.After(5 * time.Second):
		t.Fatal("handler context never cancelled after client CANCEL")
	}
	// The handler finished; the stream gauge must drain and the cancel count.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, streams, _, cancels := srv.Stats()
		if streams == 0 && cancels == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("streams=%d cancels=%d after cancel", streams, cancels)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestNotRPCPeer(t *testing.T) {
	// A plain TCP server that answers like HTTP: the handshake must fail
	// with ErrNotRPC, on a call and on a Ready probe alike (the router's
	// sign that the peer cannot serve).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				buf := make([]byte, 64)
				conn.Read(buf)
				conn.Write([]byte("HTTP/1.1 400 Bad Request\r\n\r\n"))
			}(conn)
		}
	}()
	c := NewClient(ln.Addr().String(), ClientConfig{})
	defer c.Close()
	_, err = c.Call(context.Background(), Request{Kind: KindVerify, Spec: "s"})
	if !errors.Is(err, ErrNotRPC) {
		t.Fatalf("got %v, want ErrNotRPC", err)
	}
	if err := c.Ready(context.Background()); !errors.Is(err, ErrNotRPC) {
		t.Fatalf("Ready: got %v, want ErrNotRPC", err)
	}
}

func TestServerRejectsBadHandshake(t *testing.T) {
	addr, srv, stop := startServer(t, handlerFunc(echoHandler), ServerConfig{HandshakeTimeout: 500 * time.Millisecond})
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("GET /v1/verify HTTP/1.1\r\n"))
	buf := make([]byte, 16)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// The server may write its own hello bytes before reading ours; either
	// way it must close the connection without serving.
	for {
		if _, err := conn.Read(buf); err != nil {
			break
		}
	}
	if conns, _, _, _ := srv.Stats(); conns != 0 {
		t.Fatalf("bad-handshake connection counted: %d", conns)
	}
}

func TestRedialAfterServerRestart(t *testing.T) {
	addr, _, stop := startServer(t, handlerFunc(echoHandler), ServerConfig{})
	c := NewClient(addr, ClientConfig{})
	defer c.Close()
	if _, err := c.Call(context.Background(), Request{Kind: KindVerify, Spec: "a"}); err != nil {
		t.Fatal(err)
	}
	stop()

	// Restart on the same address (retry briefly: the kernel may lag the
	// rebind) and the pooled — now dead — connection must be replaced.
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(handlerFunc(echoHandler), ServerConfig{})
	go srv2.Serve(ln)
	defer func() { ln.Close(); srv2.Close() }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := c.Call(context.Background(), Request{Kind: KindVerify, Spec: "b"})
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never recovered after restart: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestStreamLimit(t *testing.T) {
	block := make(chan struct{})
	h := handlerFunc(func(ctx context.Context, req Request) Response {
		if req.Spec == "block" {
			select {
			case <-block:
			case <-ctx.Done():
			}
		}
		return Response{Status: 200}
	})
	addr, srv, stop := startServer(t, h, ServerConfig{MaxStreams: 1})
	defer stop()
	c := NewClient(addr, ClientConfig{MaxConns: 1, StreamsPerConn: 64})
	defer c.Close()

	respc := make(chan Response, 1)
	go func() {
		resp, err := c.Call(context.Background(), Request{Kind: KindVerify, Spec: "block"})
		if err != nil {
			t.Error(err)
		}
		respc <- resp
	}()
	// Wait until the blocking stream is live before probing — otherwise the
	// probe can win the single slot and the 429 lands on the blocker instead.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, streams, _, _ := srv.Stats(); streams == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocking stream never became live")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err := c.Call(context.Background(), Request{Kind: KindVerify, Spec: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 429 {
		t.Fatalf("call past the stream cap got %d, want 429", resp.Status)
	}
	close(block)
	if resp := <-respc; resp.Status != 200 {
		t.Fatalf("blocked call finished with %d, want 200", resp.Status)
	}
}

func TestGoAwayDrain(t *testing.T) {
	addr, srv, stop := startServer(t, handlerFunc(echoHandler), ServerConfig{})
	defer stop()
	c := NewClient(addr, ClientConfig{MaxConns: 1})
	defer c.Close()
	if _, err := c.Call(context.Background(), Request{Kind: KindVerify, Spec: "a"}); err != nil {
		t.Fatal(err)
	}
	srv.StartDrain()
	// The pooled connection must observe GOAWAY and stop being selected;
	// new calls still succeed on a fresh connection (the server keeps
	// serving until Close — router health checks own taking it out of
	// rotation).
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		flagged := len(c.conns) > 0 && c.conns[0].isDead()
		c.mu.Unlock()
		if flagged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("GOAWAY never flagged the pooled connection")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Call(context.Background(), Request{Kind: KindVerify, Spec: "b"}); err != nil {
		t.Fatalf("call during drain: %v", err)
	}
}

func TestErrorBody(t *testing.T) {
	got := string(errorBody(errors.New("bad \"spec\"\nline")))
	want := `{"error":"bad \"spec\"\nline"}`
	if got != want {
		t.Fatalf("errorBody = %s, want %s", got, want)
	}
}
