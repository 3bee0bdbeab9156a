module puffer/benchmark

go 1.22

require puffer v0.0.0

replace puffer => ../
