//go:build !go1.23

package sim

// A proc runs on an iter.Pull coroutine (worker.go), which needs Go 1.23 or
// newer; an older toolchain stops here with this identifier in its errors.
var _ = dcgn_requires_go1_23
