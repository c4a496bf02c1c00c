package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// client is one HTTP/1.1 connection to the server: a transport allowed a
// single connection, so requests on it are strictly sequential, as one
// open-loop sender's are.
type client struct {
	tr   *http.Transport
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{tr: tr, hc: &http.Client{Transport: tr, Timeout: time.Minute}, base: base}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// queryReply mirrors the /query response fields the benchmark reads.
type queryReply struct {
	Rows   int          `json:"rows"`
	Groups []groupReply `json:"groups"`
}

// query runs text through /query. With decode false the body is read and
// dropped, so the client spends no time parsing what it does not check.
func (c *client) query(text string, decode bool) (*queryReply, error) {
	resp, err := c.hc.Get(c.base + "/query?q=" + url.QueryEscape(text))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return readReply[queryReply](resp, decode)
}

// ingestAck mirrors the /ingest response fields the benchmark reads.
type ingestAck struct {
	Acked int `json:"acked"`
}

func (c *client) ingest(body []byte) (*ingestAck, error) {
	resp, err := c.hc.Post(c.base+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return readReply[ingestAck](resp, true)
}

func readReply[T any](resp *http.Response, decode bool) (*T, error) {
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	v := new(T)
	if decode {
		if err := json.Unmarshal(body, v); err != nil {
			return nil, fmt.Errorf("decode reply: %w", err)
		}
	}
	return v, nil
}

// serverStats mirrors the /stats fields the benchmark reports.
type serverStats struct {
	Compacted int64 `json:"compacted_segments"`
	PlanCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"plan_cache"`
}

func (c *client) stats() (*serverStats, error) {
	resp, err := c.hc.Get(c.base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return readReply[serverStats](resp, true)
}
