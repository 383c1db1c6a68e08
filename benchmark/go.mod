module github.com/coded-computing/s2c2/benchmark

go 1.24

require github.com/coded-computing/s2c2 v0.0.0

replace github.com/coded-computing/s2c2 => ../
