package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"leakyway/internal/service"
)

// daemonHost is an in-process leakywayd: the default EngineRunner behind
// the real HTTP handler on a loopback listener, with one worker (the
// client is closed-loop, so a second worker would only sit idle).
type daemonHost struct {
	srv   *service.Server
	hs    *http.Server
	base  string
	hc    *http.Client
	dir   string
	tmpls []tmpl
	// served counts requests, naming each job's spans.
	served  int
	stopped chan struct{}
}

func startDaemon(b *bench) (*daemonHost, error) {
	tmpls, err := loadTemplates(b.root)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(b.outDir(), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(b.outDir(), "daemon-")
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Config{
		DataDir: dir,
		Workers: 1,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		os.RemoveAll(dir)
		return nil, err
	}
	h := &daemonHost{
		srv:     srv,
		hs:      &http.Server{Handler: srv.Handler()},
		base:    "http://" + ln.Addr().String(),
		hc:      &http.Client{Timeout: 2 * time.Minute},
		dir:     dir,
		tmpls:   tmpls,
		stopped: make(chan struct{}),
	}
	go func() {
		defer close(h.stopped)
		h.hs.Serve(ln)
	}()
	return h, nil
}

// close stops the listener, drains the daemon and removes its data.
func (h *daemonHost) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	h.hs.Shutdown(ctx)
	<-h.stopped
	h.hc.CloseIdleConnections()
	if err := h.srv.Drain(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: daemon drain: %v\n", err)
	}
	os.RemoveAll(h.dir)
}

// jobView is the subset of the daemon's job JSON the client reads.
type jobView struct {
	ID           string `json:"id"`
	Status       string `json:"status"`
	Error        string `json:"error"`
	CacheHit     bool   `json:"cache_hit"`
	AssertFailed int    `json:"assert_failed"`
	AssertTotal  int    `json:"assert_total"`
}

// job submits one quick-mode template run and returns its metrics
// artifact once the job is done: submit, wait for the done event, fetch.
// Its spans share one job id.
func (h *daemonHost) job(b *bench, parent int, t tmpl, seed int64) ([]byte, jobView, error) {
	h.served++
	jid := fmt.Sprintf("req-%d", h.served)
	root := b.rec.begin("bench.job", parent, jid)
	defer b.rec.end(root)

	body, err := json.Marshal(service.Submission{
		Template: t.text, Filename: t.name + ".yaml", Seed: seed, Jobs: 1, Quick: true,
	})
	if err != nil {
		return nil, jobView{}, err
	}
	span := b.rec.begin("service.submit", root, jid)
	var v jobView
	err = h.do(http.MethodPost, "/v1/jobs", body, &v)
	b.rec.end(span)
	if err != nil {
		return nil, v, err
	}
	if v.Status != service.StatusDone {
		span = b.rec.begin("service.wait", root, jid)
		v, err = h.waitDone(v.ID)
		b.rec.end(span)
		if err != nil {
			return nil, v, err
		}
	}
	if v.Status != service.StatusDone {
		return nil, v, fmt.Errorf("job %s ended %s: %s", v.ID, v.Status, v.Error)
	}
	span = b.rec.begin("service.artifact", root, jid)
	var art []byte
	err = h.do(http.MethodGet, "/v1/jobs/"+v.ID+"/artifacts/metrics", nil, &art)
	b.rec.end(span)
	return art, v, err
}

// do sends one request; a 2xx JSON body decodes into out (a *[]byte
// receives the raw body).
func (h *daemonHost) do(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
		return nil
	}
	return json.Unmarshal(data, out)
}

// waitDone follows the job's event stream until its done event, which the
// daemon sends as soon as the job reaches a final state.
func (h *daemonHost) waitDone(id string) (jobView, error) {
	resp, err := h.hc.Get(h.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return jobView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobView{}, fmt.Errorf("events %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && done {
			var v jobView
			err := json.Unmarshal([]byte(data), &v)
			return v, err
		}
	}
	if err := sc.Err(); err != nil {
		return jobView{}, err
	}
	return jobView{}, fmt.Errorf("events %s: stream ended without a done event", id)
}

// checkJob verifies one job's artifact: the template's assertions hold
// (or fail exactly as often as the reference records) and the metrics
// digest matches the reference for (template, seed).
func (b *bench) checkJob(t tmpl, seed int64, art []byte, v jobView) {
	key := seedKey(t.name, seed)
	if want := b.refs.AssertFailed[key]; v.AssertFailed != want || v.AssertTotal == 0 {
		b.fail("%s: %d of %d assertions fail, reference %d", key, v.AssertFailed, v.AssertTotal, want)
		return
	}
	b.checkDigest(b.refs.Daemon, key, digest(art))
}

// daemonSession runs the shipped templates as fresh-seed jobs. Each
// template walks its own seed order; set-up runs index 0 of every template
// (warming the engine and the store), and the measured jobs continue from
// index 1, so every one is a cache miss.
type daemonSession struct {
	h     *daemonHost
	seeds [][]int64 // per template
	next  int
}

func setupDaemon(b *bench) (session, error) {
	h, err := startDaemon(b)
	if err != nil {
		return nil, err
	}
	s := &daemonSession{h: h, next: 1}
	for i, t := range h.tmpls {
		seeds := pick(b.seed, int64(i), daemonPool, daemonHoldout)
		s.seeds = append(s.seeds, seeds)
		art, v, err := h.job(b, 0, t, seeds[0])
		if err != nil {
			h.close()
			return nil, fmt.Errorf("%s seed %d: %w", t.name, seeds[0], err)
		}
		b.attempted++
		b.checkJob(t, seeds[0], art, v)
	}
	return s, nil
}

func (s *daemonSession) pass(b *bench, parent int) bool {
	if s.next >= len(s.seeds[0]) {
		return false
	}
	for i, t := range s.h.tmpls {
		seed := s.seeds[i][s.next]
		start := time.Now()
		art, v, err := s.h.job(b, parent, t, seed)
		b.request(t.name, time.Since(start))
		switch {
		case err != nil:
			b.fail("%s seed %d: %v", t.name, seed, err)
		case v.CacheHit:
			b.fail("%s seed %d: fresh seed answered from cache", t.name, seed)
		default:
			b.checkJob(t, seed, art, v)
		}
	}
	s.next++
	return true
}

func (s *daemonSession) close() { s.h.close() }
