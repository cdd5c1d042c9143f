package faultinject

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"resilex/internal/machine"
	"resilex/internal/obs"
	"resilex/internal/serve"
	"resilex/internal/wrapper"
)

// partsTuple is a record-shaped tuple wrapper: one (name cell, price cell)
// pair per table row.
const partsTuple = `{"version":1,"kind":"tuple","expr":".* <TD> /TD <TD> .*",
 "sigma":["TABLE","/TABLE","TR","/TR","TD","/TD","H1","/H1"]}`

const partsPage = `<h1>Parts</h1><table>
<tr><td>bolt M4</td><td>$0.10</td></tr>
<tr><td>nut M4</td><td>$0.08</td></tr>
<tr><td>washer M4</td><td>$0.02</td></tr>
</table>`

// pageRoute is one page route under attack, with the oracle's answer for
// its page: the response of a wrapper loaded outside the server.
type pageRoute struct {
	path, page string
	want       any
	decode     func([]byte) (any, error)
}

// TestHostileClientsOnPageRoutes sends both page routes of a real server,
// over real connections, bodies that break off mid-transfer: a chunked body
// whose connection closes inside a chunk (its half, cut by Truncate), and a
// client that cancels its request after the handler has read part of the
// body. Each gets the typed rejection — a 400 counted under
// serve_rejected_total{reason="body_read"} — and no handler panics; the
// next request on the same key gets the oracle's answer, so the pooled
// stream session and spanner arena the broken request held come back
// clean; and once every connection is closed, runtime.NumGoroutine() is
// back at its baseline.
func TestHostileClientsOnPageRoutes(t *testing.T) {
	o := obs.New()
	s, err := serve.New(serve.Config{CacheCap: 8, Observer: o, RestoreLog: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	shop, err := trainShop(t).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for key, payload := range map[string][]byte{"shop": shop, "parts": []byte(partsTuple)} {
		if _, err := s.PutWrapper(ctx, key, payload); err != nil {
			t.Fatalf("registering %s: %v", key, err)
		}
	}
	routes := oracleRoutes(t, shop)

	// The handler runs behind a recover, and reports each request's status
	// once the handler has returned; bodyRead fires on the first body bytes
	// a handler reads.
	mux := s.Mux()
	done := make(chan int, 1)
	bodyRead := make(chan struct{}, 1)
	web := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("%s: handler panicked: %v", r.URL.Path, p)
			}
			done <- sw.status
		}()
		r.Body = &firstRead{ReadCloser: r.Body, signal: bodyRead}
		mux.ServeHTTP(sw, r)
	}))
	defer web.Close()
	client := &http.Client{Transport: &http.Transport{}}
	base := runtime.NumGoroutine()

	rejected := func() int64 {
		return o.Counter(obs.WithLabels("serve_rejected_total", "reason", "body_read")).Value()
	}
	faults := []struct {
		name string
		send func(r pageRoute) int // the status the handler answered
	}{
		{"aborted chunked body", func(r pageRoute) int {
			status, body := abortChunked(t, web.Listener.Addr().String(), r.path, r.page)
			if served := <-done; served != status {
				t.Errorf("%s: handler answered %d, client read %d", r.path, served, status)
			}
			if !bytes.Contains(body, []byte(`"error"`)) {
				t.Errorf("%s: rejection body %q carries no error", r.path, body)
			}
			return status
		}},
		{"client cancels mid-body", func(r pageRoute) int {
			cancelMidBody(t, client, web.URL+r.path, r.page, bodyRead)
			return <-done
		}},
	}
	for round := 0; round < 3; round++ {
		for _, f := range faults {
			for _, r := range routes {
				before := rejected()
				if status := f.send(r); status != http.StatusBadRequest || rejected() != before+1 {
					t.Errorf("round %d, %s on %s: status %d, body_read rejections +%d; want 400, +1",
						round, f.name, r.path, status, rejected()-before)
				}
				got, err := r.decode(post(t, client, web.URL+r.path, r.page))
				<-done
				if err != nil || !reflect.DeepEqual(got, r.want) {
					t.Errorf("round %d, after %s on %s: %+v, %v; oracle %+v", round, f.name, r.path, got, err, r.want)
				}
			}
		}
	}

	client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the rounds, %d before", n, base)
	}
}

// regionAnswer, streamAnswer and tuplesAnswer are the parts of the page
// routes' responses an oracle pins.
type regionAnswer struct {
	TokenIndex int    `json:"tokenIndex"`
	Start      int    `json:"start"`
	End        int    `json:"end"`
	Source     string `json:"source"`
}

type streamAnswer struct {
	OK bool `json:"ok"`
	regionAnswer
}

type tuplesAnswer struct {
	Count   int              `json:"count"`
	Records [][]regionAnswer `json:"records"`
}

// oracleRoutes loads both wrappers outside the server and answers each
// route's page with them.
func oracleRoutes(t *testing.T, shop []byte) []pageRoute {
	t.Helper()
	sw, err := wrapper.Load(shop, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := sw.Extract(shopB)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := wrapper.LoadTuple([]byte(partsTuple), machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := tw.ExtractAll(partsPage)
	if err != nil || len(recs) != 3 {
		t.Fatalf("oracle records: %d, %v", len(recs), err)
	}
	answer := func(r wrapper.Region) regionAnswer {
		return regionAnswer{TokenIndex: r.TokenIndex, Start: r.Span.Start, End: r.Span.End, Source: r.Source}
	}
	tuples := tuplesAnswer{Count: len(recs)}
	for _, rec := range recs {
		var row []regionAnswer
		for _, r := range rec {
			row = append(row, answer(r))
		}
		tuples.Records = append(tuples.Records, row)
	}
	return []pageRoute{
		{"/extract/stream/shop", shopB, streamAnswer{true, answer(reg)}, func(b []byte) (any, error) {
			var a streamAnswer
			return a, json.Unmarshal(b, &a)
		}},
		{"/extract/tuples/parts", partsPage, tuples, func(b []byte) (any, error) {
			var a tuplesAnswer
			return a, json.Unmarshal(b, &a)
		}},
	}
}

// abortChunked writes a chunked request whose one chunk announces the whole
// page but carries only its first half, then closes the connection's write
// side, and reads the response.
func abortChunked(t *testing.T, addr, path, page string) (int, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: text/html\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s",
		path, addr, len(page), Truncate(page, 0.5))
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("%s: reading the rejection: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// cancelMidBody streams the first half of the page, waits until the handler
// has read body bytes, and cancels the request.
func cancelMidBody(t *testing.T, client *http.Client, url, page string, bodyRead <-chan struct{}) {
	t.Helper()
	select {
	case <-bodyRead: // an earlier request's signal
	default:
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, "POST", url, pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/html")
	errc := make(chan error, 1)
	go func() {
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	go pw.Write([]byte(Truncate(page, 0.5)))
	select {
	case <-bodyRead:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: the handler read no body bytes", url)
	}
	cancel()
	// Unblock the transport's body read with an error, not EOF: an EOF
	// would end the chunked body cleanly.
	pw.CloseWithError(context.Canceled)
	if err := <-errc; err == nil {
		t.Errorf("%s: canceled request succeeded", url)
	}
}

// post sends the whole page and returns the response body.
func post(t *testing.T, client *http.Client, url, page string) []byte {
	t.Helper()
	resp, err := client.Post(url, "text/html", strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// firstRead signals the first read of a request body that returns bytes.
type firstRead struct {
	io.ReadCloser
	signal chan<- struct{}
	fired  bool
}

func (r *firstRead) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	if n > 0 && !r.fired {
		r.fired = true
		select {
		case r.signal <- struct{}{}:
		default:
		}
	}
	return n, err
}
