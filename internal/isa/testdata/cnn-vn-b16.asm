; program CNN-VN batch=16 layers=21 instrs=17001 total=25830656 cycles
LOAD_TILE  layer=0    cycles=165      live=4816896
CONV_OP    layer=0    x392    cycles=953344     live<=8388608
STORE_TILE layer=0    cycles=1126     live=8388608
VECTOR_OP  layer=0    cycles=100352   live=8388608
LOAD_TILE  layer=1    cycles=165      live=8388608
CONV_OP    layer=1    x1960   cycles=4766720    live<=8388608
STORE_TILE layer=1    cycles=1126     live=8388608
VECTOR_OP  layer=1    cycles=100352   live=8388608
VECTOR_OP  layer=2    x25     cycles=401508     live<=8388608
LOAD_TILE  layer=3    cycles=165      live=8388608
CONV_OP    layer=3    x490    cycles=1191680    live<=8388608
STORE_TILE layer=3    cycles=1126     live=8388608
VECTOR_OP  layer=3    cycles=50176    live=8388608
LOAD_TILE  layer=4    cycles=165      live=8388608
CONV_OP    layer=4    x882    cycles=2145024    live<=8388608
STORE_TILE layer=4    cycles=1126     live=8388608
VECTOR_OP  layer=4    cycles=50176    live=8388608
VECTOR_OP  layer=5    x13     cycles=200804     live<=8388608
LOAD_TILE  layer=6    cycles=165      live=8388608
CONV_OP    layer=6    x450    cycles=1075968    live<=8388608
STORE_TILE layer=6    cycles=1126     live=8388608
VECTOR_OP  layer=6    cycles=25088    live=8388608
LOAD_TILE  layer=7    cycles=165      live=8388608
CONV_OP    layer=7    x900    cycles=2151936    live<=8388608
STORE_TILE layer=7    cycles=1126     live=8388608
VECTOR_OP  layer=7    cycles=25088    live=8388608
LOAD_TILE  layer=8    cycles=165      live=8388608
CONV_OP    layer=8    x900    cycles=2151936    live<=8388608
STORE_TILE layer=8    cycles=1126     live=8388608
VECTOR_OP  layer=8    cycles=25088    live=8388608
VECTOR_OP  layer=9    x7      cycles=100452     live<=8388608
LOAD_TILE  layer=10   cycles=165      live=6422528
CONV_OP    layer=10   x504    cycles=1096704    live<=8388608
STORE_TILE layer=10   cycles=1126     live=8388608
VECTOR_OP  layer=10   cycles=12544    live=8388608
LOAD_TILE  layer=11   cycles=165      live=8388608
CONV_OP    layer=11   x1008   cycles=2193408    live<=8388608
STORE_TILE layer=11   cycles=1126     live=8388608
VECTOR_OP  layer=11   cycles=12544    live=8388608
LOAD_TILE  layer=12   cycles=165      live=8388608
CONV_OP    layer=12   x1008   cycles=2193408    live<=8388608
STORE_TILE layer=12   cycles=1126     live=8388608
VECTOR_OP  layer=12   cycles=12544    live=8388608
VECTOR_OP  layer=13   x4      cycles=50276      live<=8388608
LOAD_TILE  layer=14   cycles=165      live=3211264
CONV_OP    layer=14   x288    cycles=562176     live<=6422528
VECTOR_OP  layer=14   cycles=3136     live=3211264
LOAD_TILE  layer=15   cycles=165      live=3211264
CONV_OP    layer=15   x288    cycles=562176     live<=6422528
VECTOR_OP  layer=15   cycles=3136     live=3211264
LOAD_TILE  layer=16   cycles=165      live=3211264
CONV_OP    layer=16   x288    cycles=562176     live<=6422528
VECTOR_OP  layer=16   cycles=3136     live=3211264
VECTOR_OP  layer=17   cycles=12644    live=4014080
LOAD_TILE  layer=18   cycles=165      live=802816
GEMM_OP    layer=18   x6272   cycles=2508800    live<=933888
VECTOR_OP  layer=18   cycles=128      live=131072
LOAD_TILE  layer=19   cycles=165      live=131072
GEMM_OP    layer=19   x1024   cycles=409600     live<=262144
VECTOR_OP  layer=19   cycles=128      live=131072
LOAD_TILE  layer=20   cycles=165      live=131072
GEMM_OP    layer=20   x256    cycles=102400     live<=163072
