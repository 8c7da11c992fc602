package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"barrierpoint/internal/service"
)

// errRefused marks a request the server turned away (503: queue full or
// shutting down).
var errRefused = errors.New("refused by server")

// client is the benchmark's HTTP client for one bpserve. Under a traced
// request every HTTP call is a span (bpserve.upload, bpserve.submit,
// bpserve.poll) below the caller's span.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	return &client{
		base: "http://" + addr,
		hc: &http.Client{
			Timeout:   120 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		},
	}
}

// traceMeta is the part of the upload response the benchmark checks.
type traceMeta struct {
	Key     string `json:"key"`
	Regions int    `json:"regions"`
	Existed bool   `json:"existed"`
}

// do sends one request and decodes a 2xx JSON body into out.
func (c *client) do(method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		return fmt.Errorf("%s %s: %w: %s", method, path, errRefused, bytes.TrimSpace(b))
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

// upload stores a trace.
func (c *client) upload(parent *span, body []byte) (traceMeta, error) {
	defer parent.child("bpserve.upload").end()
	var m traceMeta
	err := c.do("POST", "/v1/traces", body, &m)
	return m, err
}

// run submits a job and polls it to a terminal state. submitted is when
// the submit call started, so latency is measured from the client's side
// of the submit to the server's finish time.
func (c *client) run(parent *span, req service.Request) (snap service.Snapshot, submitted time.Time, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return snap, submitted, err
	}
	submitted = time.Now()
	sp := parent.child("bpserve.submit")
	err = c.do("POST", "/v1/jobs", body, &snap)
	sp.end()
	if err != nil {
		return snap, submitted, err
	}
	id := snap.ID
	for !snap.Terminal() {
		// Poll briskly while the job is young and back off for long
		// ones, so polling neither dominates short jobs' latency nor
		// loads the server during long ones.
		wait := time.Since(submitted) / 20
		wait = min(max(wait, time.Millisecond), 10*time.Millisecond)
		time.Sleep(wait)
		sp := parent.child("bpserve.poll")
		err = c.do("GET", "/v1/jobs/"+id, nil, &snap)
		sp.end()
		if err != nil {
			return snap, submitted, err
		}
	}
	if snap.Status == service.StatusFailed {
		return snap, submitted, fmt.Errorf("job %s failed: %s", id, snap.Error)
	}
	return snap, submitted, nil
}

// metrics fetches a Prometheus text exposition.
func fetchMetrics(hc *http.Client, url string) (map[string]float64, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}
