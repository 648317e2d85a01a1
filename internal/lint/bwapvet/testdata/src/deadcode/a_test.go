package main

var _ = onlyTested()
