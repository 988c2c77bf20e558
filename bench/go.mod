module nds/bench

go 1.22

require nds v0.0.0

replace nds => ../
