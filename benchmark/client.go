package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"strconv"
	"time"
)

// bodySeed keys every body hash of this process, so hashes of server
// responses and of in-process reference renders are comparable.
var bodySeed = maphash.MakeSeed()

func hashBody(b []byte) uint64 { return maphash.Bytes(bodySeed, b) }

// X-Cache outcomes as the client classifies them.
const (
	cacheNone = iota
	cacheHit
	cacheMiss
	cacheCoalesced
)

// response is one parsed HTTP response. body aliases the connection's
// reusable buffer and is valid until the next request on it.
type response struct {
	status int
	cache  int
	body   []byte
}

// conn is one keep-alive HTTP/1.1 connection driven in a closed loop:
// one request is written, its response read to the end, then the next.
// It parses just what net/http servers emit (Content-Length or chunked
// bodies). The generator shares two cores with the servers, so its CPU
// is part of every number: an http.Client in its place (one Transport
// per client, MaxConnsPerHost 1, body read into a reused buffer) cost
// 125 us of client CPU per request against 64 us, which on wp_soft took
// client.busy_frac from 0.30 to 0.47, req_per_s from 4800 to 3700 and
// p50_ms from 0.36 to 0.46 in three alternating pairs (README.md) - a
// server 1.3x faster would have crossed the 0.6 refusal limit.
type conn struct {
	c    net.Conn
	r    *bufio.Reader
	body []byte
	req  []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// get sends GET target and reads the whole response.
func (c *conn) get(target string) (response, error) {
	c.req = append(c.req[:0], "GET "...)
	c.req = append(c.req, target...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: bench\r\n\r\n"...)
	c.c.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := c.c.Write(c.req); err != nil {
		return response{}, err
	}
	return c.read()
}

var (
	hdrContentLength = []byte("content-length:")
	hdrTransferEnc   = []byte("transfer-encoding:")
	hdrXCache        = []byte("x-cache:")
)

// hasPrefixFold reports whether line starts with the lower-case ASCII
// prefix, ignoring the case of line.
func hasPrefixFold(line, prefix []byte) bool {
	if len(line) < len(prefix) {
		return false
	}
	for i, p := range prefix {
		ch := line[i]
		if 'A' <= ch && ch <= 'Z' {
			ch += 'a' - 'A'
		}
		if ch != p {
			return false
		}
	}
	return true
}

func (c *conn) readLine() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

func (c *conn) read() (response, error) {
	var resp response
	line, err := c.readLine()
	if err != nil {
		return resp, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return resp, fmt.Errorf("malformed status line %q", line)
	}
	resp.status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return resp, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = c.readLine()
		if err != nil {
			return resp, err
		}
		if len(line) == 0 {
			break
		}
		switch {
		case hasPrefixFold(line, hdrContentLength):
			length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(hdrContentLength):])))
			if err != nil || length < 0 {
				return resp, fmt.Errorf("malformed header %q", line)
			}
		case hasPrefixFold(line, hdrTransferEnc):
			chunked = bytes.EqualFold(bytes.TrimSpace(line[len(hdrTransferEnc):]), []byte("chunked"))
		case hasPrefixFold(line, hdrXCache):
			switch string(bytes.TrimSpace(line[len(hdrXCache):])) {
			case "HIT":
				resp.cache = cacheHit
			case "MISS":
				resp.cache = cacheMiss
			case "COALESCED":
				resp.cache = cacheCoalesced
			}
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err = c.readLine()
			if err != nil {
				return resp, err
			}
			if i := bytes.IndexByte(line, ';'); i >= 0 {
				line = line[:i]
			}
			n, err := strconv.ParseUint(string(bytes.TrimSpace(line)), 16, 31)
			if err != nil {
				return resp, fmt.Errorf("malformed chunk size %q", line)
			}
			if n == 0 {
				// Trailer section: lines up to the blank one.
				for {
					if line, err = c.readLine(); err != nil {
						return resp, err
					}
					if len(line) == 0 {
						break
					}
				}
				break
			}
			if err := c.readBody(int(n)); err != nil {
				return resp, err
			}
			if line, err = c.readLine(); err != nil || len(line) != 0 {
				return resp, errors.New("chunk not followed by CRLF")
			}
		}
	case length >= 0:
		if err := c.readBody(length); err != nil {
			return resp, err
		}
	default:
		return resp, errors.New("response has neither Content-Length nor chunked encoding")
	}
	resp.body = c.body
	return resp, nil
}

// readBody appends the next n bytes of the stream to c.body.
func (c *conn) readBody(n int) error {
	off := len(c.body)
	if cap(c.body) < off+n {
		grown := make([]byte, off, 2*(off+n))
		copy(grown, c.body)
		c.body = grown
	}
	c.body = c.body[:off+n]
	_, err := io.ReadFull(c.r, c.body[off:])
	return err
}

// sample is what the generator keeps of one request.
type sample struct {
	end   time.Duration // completion time since the pass began
	lat   time.Duration
	hash  uint64
	page  int32
	cache uint8
	ok    bool // transport fine and status 200; the body is judged later
}

// pageTargets precomputes the request targets of the page universe so
// the closed loop formats nothing per request.
func pageTargets(pages int) []string {
	t := make([]string, pages)
	for i := range t {
		t[i] = "/?page=" + strconv.Itoa(i)
	}
	return t
}

// driveClient runs one closed-loop client on its own keep-alive
// connection until next returns page -2. page -1 requests "/" (the
// server picks the page); page >= 0 requests targets[page]. A transport
// error marks the sample failed and reconnects.
func driveClient(addr string, targets []string, start time.Time, next func() int, record func(sample)) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer func() { c.close() }()
	for {
		page := next()
		if page == -2 {
			return nil
		}
		target := "/"
		if page >= 0 {
			target = targets[page]
		}
		t0 := time.Now()
		resp, err := c.get(target)
		t1 := time.Now()
		s := sample{end: t1.Sub(start), lat: t1.Sub(t0), page: int32(page)}
		if err != nil {
			record(s)
			c.close()
			fresh, err := dial(addr)
			if err != nil {
				return err
			}
			c = fresh
			continue
		}
		s.ok = resp.status == 200
		s.cache = uint8(resp.cache)
		s.hash = hashBody(resp.body)
		record(s)
	}
}
