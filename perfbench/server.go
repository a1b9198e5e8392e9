package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one factorlogd subprocess.
type serverProc struct {
	cmd   *exec.Cmd
	base  string        // http://127.0.0.1:port
	ready time.Duration // process start to the first /readyz 200
	log   *os.File
	done  chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches bin with args plus a fresh loopback -addr and waits
// for /readyz to answer 200. stderr goes to logPath.
func startServer(client *http.Client, bin string, args []string, logPath string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan error, 1)}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() { p.done <- cmd.Wait() }()
	deadline := start.Add(120 * time.Second)
	for {
		select {
		case err := <-p.done:
			logf.Close()
			return nil, fmt.Errorf("factorlogd exited before ready (%v); log %s", err, logPath)
		default:
		}
		if resp, err := client.Get(p.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.ready = time.Since(start)
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, errors.New("factorlogd not ready within 120s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM and waits for the process; a clean drain exits 0.
func (p *serverProc) stop() error {
	defer p.log.Close()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal factorlogd: %w", err)
	}
	select {
	case err := <-p.done:
		if err != nil {
			return fmt.Errorf("factorlogd exit after SIGTERM: %w", err)
		}
		return nil
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
		return errors.New("factorlogd did not exit within 30s of SIGTERM")
	}
}

// kill ends the process without checking how it exits.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.done
	p.log.Close()
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuTime is the process's user plus system CPU time.
func (p *serverProc) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc stat field %q: %w", f, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSS is VmHWM, the process's resident-set high-water mark, in MiB.
func (p *serverProc) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// get fetches url and returns the body of a 200 response.
func get(ctx context.Context, client *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}
