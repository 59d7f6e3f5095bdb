package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one dtrd process started by the harness.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port

	mu    sync.Mutex
	lines []string // stdout, for the shutdown check

	exited  chan struct{}
	waitErr error
}

// startDaemon executes dtrd with args plus a loopback listen address
// and returns once /healthz answers 200. setup runs from exec to that
// first 200.
func startDaemon(bin string, args []string, timeout time.Duration) (d *daemon, setup time.Duration, err error) {
	cmd := exec.Command(bin, append(args, "-listen", "127.0.0.1:0")...)
	cmd.Stderr = os.Stderr
	// dtrd must not outlive a harness that dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	d = &daemon{cmd: cmd, exited: make(chan struct{})}
	listening := make(chan string, 1)
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start dtrd: %w", err)
	}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.lines = append(d.lines, line)
			d.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "dtrd: listening on "); ok {
				listening <- strings.Fields(rest)[0]
			}
		}
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	var addr string
	select {
	case addr = <-listening:
	case <-d.exited:
		return nil, 0, fmt.Errorf("dtrd exited before listening: %v", d.waitErr)
	case <-deadline.C:
		d.kill()
		return nil, 0, fmt.Errorf("dtrd did not listen within %s", timeout)
	}
	d.base = "http://" + addr
	c := newClient()
	defer c.close()
	for {
		if code, _, err := c.get(d.base + "/healthz"); err == nil && code == http.StatusOK {
			return d, time.Since(t0), nil
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("dtrd exited before /healthz answered: %v", d.waitErr)
		case <-deadline.C:
			d.kill()
			return nil, 0, fmt.Errorf("/healthz did not answer within %s", timeout)
		case <-time.After(time.Millisecond):
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM and waits for the graceful drain; it reports an
// error unless dtrd exits 0 after printing its farewell.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal dtrd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("dtrd did not exit within 30s of SIGTERM")
	}
	if d.waitErr != nil {
		return fmt.Errorf("dtrd exit: %w", d.waitErr)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.lines) == 0 || d.lines[len(d.lines)-1] != "dtrd: bye" {
		return fmt.Errorf("dtrd exited without its farewell line")
	}
	return nil
}

// kill ends the process without a drain and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // the process may already be gone
	<-d.exited
}

// client is one keep-alive HTTP connection to dtrd: the harness uses one
// for telemetry and one for quiesce, advise and plan.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) do(method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (c *client) get(url string) (int, []byte, error)               { return c.do("GET", url, nil) }
func (c *client) post(url string, body []byte) (int, []byte, error) { return c.do("POST", url, body) }

// getJSON fetches url and decodes a 200 response into v.
func (c *client) getJSON(url string, v any) error {
	code, data, err := c.get(url)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", url, code, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// postJSON posts body and decodes a 200 response into v (nil: discard).
func (c *client) postJSON(url string, body []byte, v any) error {
	code, data, err := c.post(url, body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("POST %s: %d %s", url, code, bytes.TrimSpace(data))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(data, v)
}

func (c *client) close() { c.hc.CloseIdleConnections() }
