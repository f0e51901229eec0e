package main

import "testing"

// TestUIURL: the logged UI address is a URL a browser can open for every
// spelling of -addr.
func TestUIURL(t *testing.T) {
	for _, c := range []struct{ addr, want string }{
		{":8080", "http://localhost:8080/"},
		{"127.0.0.1:18080", "http://127.0.0.1:18080/"},
		{"example.org:80", "http://example.org:80/"},
		{"[::1]:8080", "http://[::1]:8080/"},
		{"[::]:8080", "http://[::]:8080/"},
		{"0.0.0.0:9000", "http://0.0.0.0:9000/"},
	} {
		if got := uiURL(c.addr); got != c.want {
			t.Errorf("uiURL(%q) = %q, want %q", c.addr, got, c.want)
		}
	}
}
