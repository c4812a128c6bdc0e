package cql

// GenExpr hands the random expression generator of roundtrip_test.go to
// the external tests of this directory, which may import the optimizer.
var GenExpr = genExpr
