//go:build !amd64

package core

// vectorDiag is nil: only amd64 has a vector diagonal kernel, so StartP
// runs the Go loop.
var vectorDiag diagFunc
