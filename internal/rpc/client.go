package rpc

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// ClientConfig tunes a Client. The zero value is usable.
type ClientConfig struct {
	// MaxConns bounds the persistent connections kept to the target
	// (default 2). Streams multiplex, so a handful of connections carries
	// high fan-in; more mostly helps spread kernel socket buffers.
	MaxConns int
	// StreamsPerConn is the soft per-connection stream target (default 128):
	// a new connection is dialed when every existing one is at it. Calls are
	// never refused client-side — past MaxConns the least-loaded connection
	// is over-subscribed and the server's own stream cap answers 429.
	StreamsPerConn int
	// DialTimeout bounds one dial + handshake (default 3s).
	DialTimeout time.Duration
	// WriteTimeout bounds each frame write (default 10s, negative disables).
	// Frame writers on a connection serialize behind one mutex, so without a
	// deadline a server that stops reading wedges every stream multiplexed on
	// that connection — including CANCEL frames for unrelated calls — behind
	// one blocked write. On expiry the connection is failed; callers see a
	// transport error and their normal failover/redial path takes over.
	WriteTimeout time.Duration
}

func (c ClientConfig) normalize() ClientConfig {
	if c.MaxConns <= 0 {
		c.MaxConns = 2
	}
	if c.StreamsPerConn <= 0 {
		c.StreamsPerConn = 128
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 3 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.WriteTimeout < 0 {
		c.WriteTimeout = 0
	}
	return c
}

// Client multiplexes calls to one rpc server address over a small pool of
// persistent connections. It is safe for concurrent use. Dead connections
// (server restart, network cut) are dropped and redialed on the next call,
// so a long-lived client rides through backend restarts.
type Client struct {
	addr string
	cfg  ClientConfig

	dialMu sync.Mutex // serializes dials so a cold burst opens one conn, not one per call

	mu     sync.Mutex
	conns  []*clientConn
	closed bool
}

// NewClient returns a Client for addr ("host:port"). No connection is
// dialed until the first Call.
func NewClient(addr string, cfg ClientConfig) *Client {
	return &Client{addr: addr, cfg: cfg.normalize()}
}

// Addr returns the target address.
func (c *Client) Addr() string { return c.addr }

// OpenConns reports currently live pooled connections (the router's
// open-connection gauge).
func (c *Client) OpenConns() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, cc := range c.conns {
		if !cc.isDead() {
			n++
		}
	}
	return n
}

// Close tears down every pooled connection. In-flight calls fail with a
// transport error.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	conns := c.conns
	c.conns = nil
	c.mu.Unlock()
	for _, cc := range conns {
		cc.fail(net.ErrClosed)
	}
}

// Ready makes sure the pool holds a live, handshaken connection, dialing
// one only when none is open. It sends no request, so a health check can
// confirm the peer speaks VS3R without touching the serving path.
func (c *Client) Ready(ctx context.Context) error {
	_, err := c.grab(ctx)
	return err
}

// Call executes one request. A cancelled ctx sends a CANCEL frame for the
// stream (the server bridges it into the engine's cooperative Stop) and
// returns ctx.Err(). ErrNotRPC (wrapped) reports a peer that refused the
// handshake; it and every other error are transport-level (the callers'
// failover signal). A stale pooled connection that died while idle is
// retried once on a fresh dial before reporting failure.
func (c *Client) Call(ctx context.Context, req Request) (Response, error) {
	payload, err := encodeRequest(req)
	if err != nil {
		return Response{}, err
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		cc, err := c.grab(ctx)
		if err != nil {
			return Response{}, err
		}
		resp, err := cc.roundTrip(ctx, payload)
		if err == nil {
			return resp, nil
		}
		if ctx.Err() != nil {
			return Response{}, err
		}
		lastErr = err
	}
	return Response{}, lastErr
}

// grab returns a live connection with stream capacity, dialing when the pool
// is empty or saturated and under MaxConns. Dials are serialized behind
// dialMu with a re-check in between, so a burst of cold calls shares the
// first dialed connection instead of each opening its own.
func (c *Client) grab(ctx context.Context) (*clientConn, error) {
	if cc, err := c.pick(); cc != nil || err != nil {
		return cc, err
	}
	c.dialMu.Lock()
	defer c.dialMu.Unlock()
	if cc, err := c.pick(); cc != nil || err != nil {
		return cc, err
	}
	cc, err := c.dial(ctx)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cc.fail(net.ErrClosed)
		return nil, net.ErrClosed
	}
	c.conns = append(c.conns, cc)
	c.mu.Unlock()
	return cc, nil
}

// pick prunes dead connections and returns a usable one, or (nil, nil) when
// the caller should dial: the pool is empty, or every connection is at the
// per-connection stream target and the pool is under MaxConns.
func (c *Client) pick() (*clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, net.ErrClosed
	}
	live := c.conns[:0]
	var best *clientConn
	for _, cc := range c.conns {
		if cc.isDead() {
			continue
		}
		live = append(live, cc)
		if best == nil || cc.load() < best.load() {
			best = cc
		}
	}
	c.conns = live
	if best == nil {
		return nil, nil
	}
	if best.load() < c.cfg.StreamsPerConn || len(c.conns) >= c.cfg.MaxConns {
		return best, nil
	}
	return nil, nil
}

func (c *Client) dial(ctx context.Context) (*clientConn, error) {
	dctx, cancel := context.WithTimeout(ctx, c.cfg.DialTimeout)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(dctx, "tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", c.addr, err)
	}
	_ = conn.SetDeadline(time.Now().Add(c.cfg.DialTimeout))
	if err := handshake(conn); err != nil {
		conn.Close()
		return nil, fmt.Errorf("rpc: %s: %w", c.addr, err)
	}
	_ = conn.SetDeadline(time.Time{})
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	cc := &clientConn{conn: conn, writeTimeout: c.cfg.WriteTimeout, streams: map[uint64]chan Response{}, deadc: make(chan struct{})}
	go cc.readLoop()
	return cc, nil
}

// clientConn is one pooled connection.
type clientConn struct {
	conn         net.Conn
	writeTimeout time.Duration

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	streams map[uint64]chan Response
	nextID  uint64
	goaway  bool
	dead    bool
	err     error
	deadc   chan struct{} // closed when the connection dies
}

func (cc *clientConn) isDead() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.dead || cc.goaway
}

func (cc *clientConn) load() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.streams)
}

// fail marks the connection dead, wakes every waiter, and closes the socket.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		return
	}
	cc.dead = true
	cc.err = err
	close(cc.deadc)
	cc.mu.Unlock()
	cc.conn.Close()
}

func (cc *clientConn) readLoop() {
	br := &byteReader{r: bufio.NewReaderSize(cc.conn, 64<<10)}
	for {
		f, err := readFrame(br)
		if err != nil {
			cc.fail(fmt.Errorf("rpc: connection lost: %w", err))
			return
		}
		switch f.typ {
		case frameResp:
			resp, err := decodeResponse(f.payload)
			if err != nil {
				cc.fail(err)
				return
			}
			cc.mu.Lock()
			ch := cc.streams[f.stream]
			delete(cc.streams, f.stream)
			cc.mu.Unlock()
			if ch != nil {
				ch <- resp // buffered; a cancelled caller simply never reads it
			}
		case framePing:
			_ = cc.write(framePong, f.stream, f.payload)
		case frameGoAway:
			cc.mu.Lock()
			cc.goaway = true // existing streams finish; grab() stops picking us
			cc.mu.Unlock()
		case framePong:
			// No active pinger; ignore.
		default:
			cc.fail(fmt.Errorf("rpc: unknown frame type 0x%02x from server", f.typ))
			return
		}
	}
}

// write sends one frame under the write mutex, bounded by WriteTimeout. A
// failed or expired write fails the whole connection: the frame stream is
// unrecoverable mid-frame, and failing fast unblocks every waiter instead of
// letting a stalled peer wedge wmu (and with it CANCELs for other streams).
func (cc *clientConn) write(typ byte, stream uint64, payload []byte) error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	if cc.writeTimeout > 0 {
		_ = cc.conn.SetWriteDeadline(time.Now().Add(cc.writeTimeout))
	}
	err := writeFrame(cc.conn, typ, stream, payload)
	if err != nil {
		cc.fail(fmt.Errorf("rpc: frame write: %w", err))
	}
	return err
}

// roundTrip opens a stream, writes the request, and waits for its response,
// the connection's death, or ctx.
func (cc *clientConn) roundTrip(ctx context.Context, payload []byte) (Response, error) {
	ch := make(chan Response, 1)
	cc.mu.Lock()
	if cc.dead {
		err := cc.err
		cc.mu.Unlock()
		return Response{}, err
	}
	cc.nextID++
	id := cc.nextID
	cc.streams[id] = ch
	cc.mu.Unlock()

	forget := func() {
		cc.mu.Lock()
		delete(cc.streams, id)
		cc.mu.Unlock()
	}
	if err := cc.write(frameReq, id, payload); err != nil {
		forget()
		cc.fail(err)
		return Response{}, err
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-cc.deadc:
		forget()
		cc.mu.Lock()
		err := cc.err
		cc.mu.Unlock()
		return Response{}, err
	case <-ctx.Done():
		// Half-close the stream: the server cancels the run (engine Stop)
		// and will answer with an aborted status nobody is waiting for.
		forget()
		_ = cc.write(frameCancel, id, nil)
		return Response{}, ctx.Err()
	}
}
