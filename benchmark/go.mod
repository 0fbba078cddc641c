module dcgn/benchmark

go 1.22

require dcgn v0.0.0

replace dcgn => ../
