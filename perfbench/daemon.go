package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemonDefaults holds streamhistd's flag defaults, parsed from its -h
// output, so the in-process traced run and the restored windows mirror
// whatever defaults the commit under test ships.
type daemonDefaults map[string]string

var defaultRe = regexp.MustCompile(`\(default ([^)]*)\)`)

// readDefaults runs `streamhistd -h` and collects each flag's default.
// Flags whose default is the zero value print none and read as "".
func readDefaults(bin string) (daemonDefaults, error) {
	out, err := exec.Command(bin, "-h").CombinedOutput()
	if len(out) == 0 {
		return nil, fmt.Errorf("streamhistd -h: %v", err)
	}
	d := daemonDefaults{}
	var flag string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "  -") {
			flag = strings.Fields(line)[0][1:]
			d[flag] = ""
		}
		if m := defaultRe.FindStringSubmatch(line); m != nil && flag != "" {
			d[flag] = strings.Trim(m[1], `"`)
		}
	}
	if _, ok := d["window"]; !ok {
		return nil, fmt.Errorf("streamhistd -h: no -window flag in %q", out)
	}
	return d, nil
}

func (d daemonDefaults) int(name string) int {
	v, _ := strconv.Atoi(d[name])
	return v
}

func (d daemonDefaults) float(name string) float64 {
	v, _ := strconv.ParseFloat(d[name], 64)
	return v
}

func (d daemonDefaults) bool(name string) bool { return d[name] == "true" }

func (d daemonDefaults) duration(name string) time.Duration {
	v, _ := time.ParseDuration(d[name])
	return v
}

// daemon is one streamhistd process on loopback.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
	log  string
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startDaemon execs bin with args on a free loopback port, logging to
// logPath.
func startDaemon(bin string, args []string, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("free port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		return nil, fmt.Errorf("start streamhistd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{}), log: logPath}
	go func() {
		_ = cmd.Wait() // exit status is reported through waitReady / logs
		_ = logf.Close()
		close(d.done)
	}()
	return d, nil
}

// waitReady polls /readyz every millisecond until it answers 200.
func (d *daemon) waitReady(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("streamhistd exited during start-up; log:\n%s", d.logTail())
		default:
		}
		resp, err := c.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("streamhistd not ready within %s; log:\n%s", timeout, d.logTail())
}

// kill stops the process at once (no final checkpoint) and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.done
}

// stop sends SIGTERM, waits for the graceful drain, and kills after 20s.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		if st := d.cmd.ProcessState; st != nil && !st.Success() {
			return fmt.Errorf("streamhistd exited with %v; log:\n%s", st, d.logTail())
		}
		return nil
	case <-time.After(20 * time.Second):
		d.kill()
		return fmt.Errorf("streamhistd did not stop within 20s of SIGTERM")
	}
}

// peakRSSMiB reads the daemon's VmHWM.
func (d *daemon) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

func (d *daemon) logTail() string {
	data, _ := os.ReadFile(d.log)
	if len(data) > 4000 {
		data = data[len(data)-4000:]
	}
	return string(data)
}

// httpDo sends one request and decodes a 200 JSON reply into out (nil
// discards it). A non-200 status is an error carrying the body.
func httpDo(c *http.Client, method, url string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// newClient returns a keep-alive loopback client holding at most conns
// connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}
