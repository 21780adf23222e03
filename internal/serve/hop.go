package serve

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"
)

// hop is the router's one client for backend traffic: each exchange runs
// on the caller's goroutine over a pooled keep-alive connection, where
// net/http's Transport runs two goroutines per connection.
type hop struct {
	timeout time.Duration // bound on one exchange, body included
	maxIdle int           // idle connections kept per address (<= 0: no cap)
	mu      sync.Mutex
	idle    map[string][]*hopConn
}

type hopConn struct {
	net.Conn
	addr string
	br   *bufio.Reader
	bw   *bufio.Writer
}

// errHopTimeout is deliberately not a *net.OpError: a slow backend is
// answered 502, not evicted like a refused one (retryableNetErr).
var errHopTimeout = errors.New("serve: backend did not answer in time")

// RoundTrip sends req to req.URL.Host. A reused connection that fails
// before any answer byte, other than by timing out, was closed by the
// backend while idle and is redialled once (net/http's stale keep-alive
// rule), so an idle close never looks like a dead backend. A request
// with a body always dials, so a redial never has to replay one.
func (h *hop) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx, addr := req.Context(), req.URL.Host
	var c *hopConn
	h.mu.Lock()
	if idle := h.idle[addr]; len(idle) > 0 && (req.Body == nil || req.Body == http.NoBody) {
		c, h.idle[addr] = idle[len(idle)-1], idle[:len(idle)-1]
	}
	h.mu.Unlock()
	if c != nil {
		resp, answered, err := h.exchange(ctx, c, req)
		if err == nil || answered || ctx.Err() != nil || errors.Is(err, os.ErrDeadlineExceeded) {
			return resp, hopErr(ctx, err)
		}
	}
	nc, err := (&net.Dialer{Timeout: h.timeout}).DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, hopErr(ctx, err)
	}
	resp, _, err := h.exchange(ctx, &hopConn{nc, addr, bufio.NewReader(nc), bufio.NewWriter(nc)}, req)
	return resp, hopErr(ctx, err)
}

// exchange writes req on c and reads the answer's header under a
// deadline of hop.timeout, moved into the past when the context ends
// first (cancelled, or past its own deadline). On error c is closed.
func (h *hop) exchange(ctx context.Context, c *hopConn, req *http.Request) (resp *http.Response, answered bool, err error) {
	c.SetDeadline(time.Now().Add(h.timeout))
	stop := context.AfterFunc(ctx, func() { c.SetDeadline(time.Unix(1, 0)) })
	if err = req.Write(c.bw); err == nil {
		err = c.bw.Flush()
	}
	if err == nil {
		if _, err = c.br.Peek(1); err == nil {
			answered = true
			resp, err = http.ReadResponse(c.br, req)
		}
	}
	if err != nil {
		stop()
		c.Close()
		return nil, answered, err
	}
	resp.Body = &hopBody{ReadCloser: resp.Body, h: h, c: c, keep: !resp.Close, stop: stop}
	return resp, true, nil
}

// hopErr names what ended an exchange: the caller (the context's error),
// the bound (errHopTimeout) or the network (err itself).
func hopErr(ctx context.Context, err error) error {
	if err != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return errHopTimeout
	}
	return err
}

// hopBody hands its connection back to the idle list at EOF, or closes
// it (read error, early Close, Connection: close, cancelled, list full).
type hopBody struct {
	io.ReadCloser
	h    *hop
	c    *hopConn // nil once released
	keep bool
	stop func() bool
}

// Read reads the body and releases the connection at its end.
func (b *hopBody) Read(p []byte) (n int, err error) {
	if n, err = b.ReadCloser.Read(p); err != nil {
		b.done(err == io.EOF)
	}
	return n, err
}

// Close releases the connection, closing it unless the body was read.
func (b *hopBody) Close() error {
	b.done(false)
	return nil
}

func (b *hopBody) done(eof bool) {
	if b.c == nil {
		return
	}
	h, c := b.h, b.c
	b.c = nil
	h.mu.Lock()
	idle := h.idle[c.addr]
	reuse := b.stop() && eof && b.keep && c.br.Buffered() == 0 && (h.maxIdle <= 0 || len(idle) < h.maxIdle)
	if reuse {
		h.idle[c.addr] = append(idle, c)
	}
	h.mu.Unlock()
	if !reuse {
		c.Close()
	}
}
