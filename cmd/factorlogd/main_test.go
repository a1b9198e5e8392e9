package main

import (
	"net"
	"net/http"
	"syscall"
	"testing"
	"time"
)

// freeAddr returns a loopback address with a port that was free a moment
// ago; run binds it again by address.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestSIGTERMRightAfterReadyDrains runs the real entry point in-process and
// sends SIGTERM to this process as soon as /readyz first answers 200. The
// handler must already be installed by then: run drains and returns nil
// instead of the signal's default action killing the test binary.
func TestSIGTERMRightAfterReadyDrains(t *testing.T) {
	addr := freeAddr(t)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-program", "../../testdata/tc3.dl"})
	}()

	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case err := <-done:
			t.Fatalf("run returned before ready: %v", err)
		default:
		}
		resp, err := client.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server not ready within 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return within 10s of SIGTERM")
	}
}
