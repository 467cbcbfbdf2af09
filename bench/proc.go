package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pathalias/internal/obs"
)

// proc is one started program of the system under test. Its standard
// error goes to a log file in the work directory; its standard output
// is read for the addresses a daemon prints when it starts listening.
type proc struct {
	name  string
	cmd   *exec.Cmd
	start time.Time
	log   string
	tcp   string // line-protocol address, "" if not (yet) listening
	http  string
	done  chan struct{} // closed when standard output reaches EOF

	endOnce sync.Once
	endErr  error
}

// startTimeout bounds how long a daemon may take to print its addresses.
const startTimeout = 60 * time.Second

// startDaemon starts routed with args plus loopback listeners on
// ephemeral ports, and returns once it prints the addresses it bound:
// the line protocol always, HTTP when withHTTP.
func startDaemon(bin, logPath string, withHTTP bool, args ...string) (*proc, error) {
	full := []string{"-tcp", "127.0.0.1:0"}
	if withHTTP {
		full = append(full, "-http", "127.0.0.1:0")
	}
	full = append(full, args...)
	p, stdout, err := launch("routed", bin, logPath, full...)
	if err != nil {
		return nil, err
	}
	addrs := make(chan [2]string, 1)
	go func() {
		defer close(p.done)
		var tcp, web string
		sent := false
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "routed: line protocol on "); ok {
				tcp = a
			} else if a, ok := strings.CutPrefix(line, "routed: http on "); ok {
				web = a
			}
			if !sent && tcp != "" && (web != "" || !withHTTP) {
				addrs <- [2]string{tcp, web}
				sent = true
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	select {
	case a := <-addrs:
		p.tcp, p.http = a[0], a[1]
		return p, nil
	case <-p.done:
		p.stop()
		return nil, fmt.Errorf("routed exited before listening: %s", p.logTail())
	case <-time.After(startTimeout):
		p.stop()
		return nil, fmt.Errorf("routed did not listen within %v: %s", startTimeout, p.logTail())
	}
}

// launch starts bin with args, standard error to logPath. The child is
// killed if the benchmark dies first, so no daemon outlives a crashed
// or timed-out run.
func launch(name, bin, logPath string, args ...string) (*proc, io.ReadCloser, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, nil, err
	}
	p := &proc{name: name, cmd: cmd, log: logPath, done: make(chan struct{})}
	p.start = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, nil, fmt.Errorf("start %s: %w", name, err)
	}
	logf.Close() // the child holds its own descriptor
	track(p)
	return p, stdout, nil
}

// runTool runs a batch program to completion and returns its wall time
// from exec to exit, and the CPU time it used.
func runTool(name, bin, logPath string, args ...string) (wall, cpu time.Duration, err error) {
	p, stdout, err := launch(name, bin, logPath, args...)
	if err != nil {
		return 0, 0, err
	}
	go func() {
		io.Copy(io.Discard, stdout)
		close(p.done)
	}()
	<-p.done
	p.endOnce.Do(func() { p.endErr = p.cmd.Wait() })
	wall = time.Since(p.start)
	untrack(p)
	if p.endErr != nil {
		return wall, 0, fmt.Errorf("%s: %v: %s", name, p.endErr, p.logTail())
	}
	return wall, p.cpuUsed(), nil
}

// cpuUsed is the user+system CPU time of an exited process.
func (p *proc) cpuUsed() time.Duration {
	if p.cmd.ProcessState == nil {
		return 0
	}
	return p.cmd.ProcessState.UserTime() + p.cmd.ProcessState.SystemTime()
}

// stop ends the process and waits for it. Graceful stops send SIGTERM
// and expect a clean exit; kill is for daemons whose graceful shutdown
// would first finish background work the measurement no longer needs.
func (p *proc) stop() error { return p.end(false) }

func (p *proc) kill() error { return p.end(true) }

func (p *proc) end(kill bool) error {
	if p == nil {
		return nil
	}
	p.endOnce.Do(func() {
		if kill {
			p.cmd.Process.Kill()
		} else {
			p.cmd.Process.Signal(syscall.SIGTERM)
		}
		select {
		case <-p.done:
		case <-time.After(20 * time.Second):
			p.cmd.Process.Kill()
			<-p.done
		}
		err := p.cmd.Wait()
		untrack(p)
		if err != nil && !kill {
			p.endErr = fmt.Errorf("%s exited uncleanly: %v: %s", p.name, err, p.logTail())
		}
	})
	return p.endErr
}

// logTail returns the end of the process's standard error, for error
// messages.
func (p *proc) logTail() string {
	b, err := os.ReadFile(p.log)
	if err != nil {
		return "(no log)"
	}
	s := strings.TrimSpace(string(b))
	if len(s) > 600 {
		s = "…" + s[len(s)-600:]
	}
	return s
}

// hwmMB returns the process's peak resident set (VmHWM) in megabytes.
func (p *proc) hwmMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux ABI.
const clockTick = 10 * time.Millisecond

// cpuTime returns the process's user+system CPU time so far.
func (p *proc) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields overall, the 12th and 13th after it.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat times")
	}
	return time.Duration(ut+st) * clockTick, nil
}

const (
	// A daemon counts as idle once its threads together run less than
	// idleShare of one CPU over idleWindow; awaitIdle gives up waiting
	// for that after idleWait.
	idleShare  = 0.2
	idleWindow = 5 * time.Millisecond
	idleWait   = 2 * time.Second
)

// awaitIdle waits until the process has gone idle, so that a speed
// sample taken next does not compete with work it finishes after
// answering, such as a garbage collection. It reports false if the
// process was still busy after idleWait.
func (p *proc) awaitIdle() (bool, error) {
	deadline := time.Now().Add(idleWait)
	prev, err := p.onCPU()
	if err != nil {
		return false, err
	}
	for time.Now().Before(deadline) {
		time.Sleep(idleWindow)
		cur, err := p.onCPU()
		if err != nil {
			return false, err
		}
		if float64(cur-prev) < idleShare*float64(idleWindow) {
			return true, nil
		}
		prev = cur
	}
	return false, nil
}

// onCPU returns how long the process's threads have run, from the
// scheduler's per-thread statistics (nanoseconds, unlike the 10 ms
// ticks of /proc/<pid>/stat).
func (p *proc) onCPU() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", p.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread has exited
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("schedstat: %w", err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// lineConn is one line-protocol connection.
type lineConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func dialLine(addr string) (*lineConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &lineConn{c: c, br: bufio.NewReaderSize(c, 64<<10), bw: bufio.NewWriterSize(c, 64<<10)}, nil
}

// replyTimeout is how long any single reply may take before it counts
// as missing.
const replyTimeout = 30 * time.Second

// ask sends one request and returns its reply line without the newline.
func (l *lineConn) ask(req string) (string, error) {
	l.c.SetDeadline(time.Now().Add(replyTimeout))
	l.bw.WriteString(req)
	l.bw.WriteByte('\n')
	if err := l.bw.Flush(); err != nil {
		return "", err
	}
	line, err := l.br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimSuffix(line, "\n"), nil
}

func (l *lineConn) close() { l.c.Close() }

// check is one request with the reply it must get.
type check struct {
	req, want string
}

// warmingUp marks the replies a daemon gives while its map engine is
// still computing after a warm start: not an answer yet, ask again.
const warmingUp = "map engine still warming up"

// awaitAnswers asks each check until it is answered exactly as wanted
// and returns the time from p's exec until the last one was. Any other
// reply is a wrong answer.
func awaitAnswers(p *proc, checks []check) (time.Duration, error) {
	conn, err := dialLine(p.tcp)
	if err != nil {
		return 0, err
	}
	defer conn.close()
	for _, c := range checks {
		for {
			got, err := conn.ask(c.req)
			if err != nil {
				return 0, fmt.Errorf("%q: %v", c.req, err)
			}
			if got == c.want {
				break
			}
			if !strings.Contains(got, warmingUp) {
				return 0, fmt.Errorf("wrong answer to %q: got %q, want %q", c.req, got, c.want)
			}
			if time.Since(p.start) > startTimeout {
				return 0, fmt.Errorf("%q still warming up after %v", c.req, startTimeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return time.Since(p.start), nil
}

// httpGet fetches one URL path from the daemon's HTTP listener.
func (p *proc) httpGet(path string) ([]byte, error) {
	client := http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get("http://" + p.http + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// serverQuantiles scrapes /metrics and returns the p50 and p99 of the
// daemon's own request-latency histogram for one surface, in
// microseconds.
func (p *proc) serverQuantiles(surface string) (p50, p99 float64, err error) {
	body, err := p.httpGet("/metrics")
	if err != nil {
		return 0, 0, err
	}
	samples, err := obs.ParseText(strings.NewReader(string(body)))
	if err != nil {
		return 0, 0, err
	}
	pts := obs.HistogramBuckets(samples, "routed_request_seconds", map[string]string{"surface": surface})
	if len(pts) == 0 {
		return 0, 0, fmt.Errorf("no %s latency histogram in /metrics", surface)
	}
	return obs.HistogramQuantile(0.50, pts) * 1e6, obs.HistogramQuantile(0.99, pts) * 1e6, nil
}
