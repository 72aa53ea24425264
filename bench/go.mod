module curp/bench

go 1.24

require curp v0.0.0

replace curp => ../
