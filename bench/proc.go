package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// vapd is one running server process, started from the binary run.sh
// built. The benchmark pins -workers 2 so the chunk plan does not depend
// on the host's core count; -shards and -cache keep their defaults.
type vapd struct {
	cmd      *exec.Cmd
	log      *os.File
	httpAddr string
	myAddr   string
	client   *http.Client // control-plane requests (health, stats); load clients bring their own
	setup    time.Duration
	exited   chan struct{} // closed once the process has been reaped
	killed   bool
}

// freePort asks the kernel for an unused loopback port. vapd logs the
// address it was given, not the one it bound, so ":0" cannot be used.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startVapd launches vapd over the seed's dataset (in dir when durable)
// and waits for the first 200 from /api/health; setup is exec to that
// 200. Compile time is not in it: the binary already exists.
func startVapd(bin, logPath string, seed int64, dir string) (*vapd, error) {
	httpAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	myAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", httpAddr, "-mysql-addr", myAddr, "-workers", "2",
		"-seed", strconv.FormatInt(seed, 10), "-days", strconv.Itoa(datasetDays)}
	if dir != "" {
		args = append(args, "-dir", dir)
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	v := &vapd{cmd: exec.Command(bin, args...), log: logf, httpAddr: httpAddr, myAddr: myAddr,
		client: &http.Client{Timeout: 30 * time.Second}}
	v.cmd.Stdout, v.cmd.Stderr = logf, logf
	start := time.Now()
	if err := v.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start vapd: %w", err)
	}
	exited := make(chan struct{})
	v.exited = exited
	go func() { _ = v.cmd.Wait(); close(exited) }()
	for {
		resp, err := v.client.Get("http://" + httpAddr + "/api/health")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				v.setup = time.Since(start)
				return v, nil
			}
		}
		select {
		case <-exited:
			logf.Close()
			return nil, fmt.Errorf("vapd exited before becoming healthy (see %s)", logPath)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Since(start) > 120*time.Second {
			v.kill()
			return nil, fmt.Errorf("vapd not healthy after 120s (see %s)", logPath)
		}
	}
}

// kill sends SIGKILL and waits for the process to be gone. The OS cache
// survives, so what a restart then proves is process-crash durability,
// not power-loss durability.
func (v *vapd) kill() {
	if v.killed {
		return
	}
	v.killed = true
	_ = v.cmd.Process.Signal(syscall.SIGKILL)
	<-v.exited
	v.client.CloseIdleConnections()
	v.log.Close()
}

// procStatusKB reads one "Vm...: N kB" line of /proc/<pid>/status.
func (v *vapd) procStatusKB(key string) float64 {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(v.cmd.Process.Pid), "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, key+":") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb
			}
		}
	}
	return 0
}

// rssPeakMB is the process's high-water resident set (VmHWM).
func (v *vapd) rssPeakMB() float64 { return v.procStatusKB("VmHWM") / 1024 }

// cpuSeconds is user + system CPU time consumed so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func (v *vapd) cpuSeconds() float64 {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(v.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:]) // skip "pid (comm)"
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}
