; program RNN-MT1 batch=1 layers=180 instrs=59550 total=22829790 cycles
LOAD_TILE  layer=0    cycles=165      live=3072
GEMM_OP    layer=0    x288    cycles=110880     live<=6144
VECTOR_OP  layer=0    cycles=3        live=3072
LOAD_TILE  layer=1    cycles=165      live=3072
GEMM_OP    layer=1    x288    cycles=110880     live<=6144
VECTOR_OP  layer=1    cycles=3        live=3072
LOAD_TILE  layer=2    cycles=165      live=3072
GEMM_OP    layer=2    x288    cycles=110880     live<=6144
VECTOR_OP  layer=2    cycles=3        live=3072
LOAD_TILE  layer=3    cycles=165      live=3072
GEMM_OP    layer=3    x288    cycles=110880     live<=6144
VECTOR_OP  layer=3    cycles=3        live=3072
LOAD_TILE  layer=4    cycles=165      live=3072
GEMM_OP    layer=4    x288    cycles=110880     live<=6144
VECTOR_OP  layer=4    cycles=3        live=3072
LOAD_TILE  layer=5    cycles=165      live=3072
GEMM_OP    layer=5    x288    cycles=110880     live<=6144
VECTOR_OP  layer=5    cycles=3        live=3072
LOAD_TILE  layer=6    cycles=165      live=3072
GEMM_OP    layer=6    x288    cycles=110880     live<=6144
VECTOR_OP  layer=6    cycles=3        live=3072
LOAD_TILE  layer=7    cycles=165      live=3072
GEMM_OP    layer=7    x288    cycles=110880     live<=6144
VECTOR_OP  layer=7    cycles=3        live=3072
LOAD_TILE  layer=8    cycles=165      live=3072
GEMM_OP    layer=8    x288    cycles=110880     live<=6144
VECTOR_OP  layer=8    cycles=3        live=3072
LOAD_TILE  layer=9    cycles=165      live=3072
GEMM_OP    layer=9    x288    cycles=110880     live<=6144
VECTOR_OP  layer=9    cycles=3        live=3072
LOAD_TILE  layer=10   cycles=165      live=3072
GEMM_OP    layer=10   x288    cycles=110880     live<=6144
VECTOR_OP  layer=10   cycles=3        live=3072
LOAD_TILE  layer=11   cycles=165      live=3072
GEMM_OP    layer=11   x288    cycles=110880     live<=6144
VECTOR_OP  layer=11   cycles=3        live=3072
LOAD_TILE  layer=12   cycles=165      live=3072
GEMM_OP    layer=12   x288    cycles=110880     live<=6144
VECTOR_OP  layer=12   cycles=3        live=3072
LOAD_TILE  layer=13   cycles=165      live=3072
GEMM_OP    layer=13   x288    cycles=110880     live<=6144
VECTOR_OP  layer=13   cycles=3        live=3072
LOAD_TILE  layer=14   cycles=165      live=3072
GEMM_OP    layer=14   x288    cycles=110880     live<=6144
VECTOR_OP  layer=14   cycles=3        live=3072
LOAD_TILE  layer=15   cycles=165      live=3072
GEMM_OP    layer=15   x288    cycles=110880     live<=6144
VECTOR_OP  layer=15   cycles=3        live=3072
LOAD_TILE  layer=16   cycles=165      live=3072
GEMM_OP    layer=16   x288    cycles=110880     live<=6144
VECTOR_OP  layer=16   cycles=3        live=3072
LOAD_TILE  layer=17   cycles=165      live=3072
GEMM_OP    layer=17   x288    cycles=110880     live<=6144
VECTOR_OP  layer=17   cycles=3        live=3072
LOAD_TILE  layer=18   cycles=165      live=3072
GEMM_OP    layer=18   x288    cycles=110880     live<=6144
VECTOR_OP  layer=18   cycles=3        live=3072
LOAD_TILE  layer=19   cycles=165      live=3072
GEMM_OP    layer=19   x288    cycles=110880     live<=6144
VECTOR_OP  layer=19   cycles=3        live=3072
LOAD_TILE  layer=20   cycles=165      live=3072
GEMM_OP    layer=20   x288    cycles=110880     live<=6144
VECTOR_OP  layer=20   cycles=3        live=3072
LOAD_TILE  layer=21   cycles=165      live=3072
GEMM_OP    layer=21   x288    cycles=110880     live<=6144
VECTOR_OP  layer=21   cycles=3        live=3072
LOAD_TILE  layer=22   cycles=165      live=3072
GEMM_OP    layer=22   x288    cycles=110880     live<=6144
VECTOR_OP  layer=22   cycles=3        live=3072
LOAD_TILE  layer=23   cycles=165      live=3072
GEMM_OP    layer=23   x288    cycles=110880     live<=6144
VECTOR_OP  layer=23   cycles=3        live=3072
LOAD_TILE  layer=24   cycles=165      live=3072
GEMM_OP    layer=24   x288    cycles=110880     live<=6144
VECTOR_OP  layer=24   cycles=3        live=3072
LOAD_TILE  layer=25   cycles=165      live=3072
GEMM_OP    layer=25   x288    cycles=110880     live<=6144
VECTOR_OP  layer=25   cycles=3        live=3072
LOAD_TILE  layer=26   cycles=165      live=3072
GEMM_OP    layer=26   x288    cycles=110880     live<=6144
VECTOR_OP  layer=26   cycles=3        live=3072
LOAD_TILE  layer=27   cycles=165      live=3072
GEMM_OP    layer=27   x288    cycles=110880     live<=6144
VECTOR_OP  layer=27   cycles=3        live=3072
LOAD_TILE  layer=28   cycles=165      live=3072
GEMM_OP    layer=28   x288    cycles=110880     live<=6144
VECTOR_OP  layer=28   cycles=3        live=3072
LOAD_TILE  layer=29   cycles=165      live=3072
GEMM_OP    layer=29   x288    cycles=110880     live<=6144
VECTOR_OP  layer=29   cycles=3        live=3072
LOAD_TILE  layer=30   cycles=165      live=3072
GEMM_OP    layer=30   x288    cycles=110880     live<=6144
VECTOR_OP  layer=30   cycles=3        live=3072
LOAD_TILE  layer=31   cycles=165      live=3072
GEMM_OP    layer=31   x288    cycles=110880     live<=6144
VECTOR_OP  layer=31   cycles=3        live=3072
LOAD_TILE  layer=32   cycles=165      live=3072
GEMM_OP    layer=32   x288    cycles=110880     live<=6144
VECTOR_OP  layer=32   cycles=3        live=3072
LOAD_TILE  layer=33   cycles=165      live=3072
GEMM_OP    layer=33   x288    cycles=110880     live<=6144
VECTOR_OP  layer=33   cycles=3        live=3072
LOAD_TILE  layer=34   cycles=165      live=3072
GEMM_OP    layer=34   x288    cycles=110880     live<=6144
VECTOR_OP  layer=34   cycles=3        live=3072
LOAD_TILE  layer=35   cycles=165      live=3072
GEMM_OP    layer=35   x288    cycles=110880     live<=6144
VECTOR_OP  layer=35   cycles=3        live=3072
LOAD_TILE  layer=36   cycles=165      live=3072
GEMM_OP    layer=36   x288    cycles=110880     live<=6144
VECTOR_OP  layer=36   cycles=3        live=3072
LOAD_TILE  layer=37   cycles=165      live=3072
GEMM_OP    layer=37   x288    cycles=110880     live<=6144
VECTOR_OP  layer=37   cycles=3        live=3072
LOAD_TILE  layer=38   cycles=165      live=3072
GEMM_OP    layer=38   x288    cycles=110880     live<=6144
VECTOR_OP  layer=38   cycles=3        live=3072
LOAD_TILE  layer=39   cycles=165      live=3072
GEMM_OP    layer=39   x288    cycles=110880     live<=6144
VECTOR_OP  layer=39   cycles=3        live=3072
LOAD_TILE  layer=40   cycles=165      live=3072
GEMM_OP    layer=40   x288    cycles=110880     live<=6144
VECTOR_OP  layer=40   cycles=3        live=3072
LOAD_TILE  layer=41   cycles=165      live=3072
GEMM_OP    layer=41   x288    cycles=110880     live<=6144
VECTOR_OP  layer=41   cycles=3        live=3072
LOAD_TILE  layer=42   cycles=165      live=3072
GEMM_OP    layer=42   x288    cycles=110880     live<=6144
VECTOR_OP  layer=42   cycles=3        live=3072
LOAD_TILE  layer=43   cycles=165      live=3072
GEMM_OP    layer=43   x288    cycles=110880     live<=6144
VECTOR_OP  layer=43   cycles=3        live=3072
LOAD_TILE  layer=44   cycles=165      live=3072
GEMM_OP    layer=44   x288    cycles=110880     live<=6144
VECTOR_OP  layer=44   cycles=3        live=3072
LOAD_TILE  layer=45   cycles=165      live=3072
GEMM_OP    layer=45   x288    cycles=110880     live<=6144
VECTOR_OP  layer=45   cycles=3        live=3072
LOAD_TILE  layer=46   cycles=165      live=3072
GEMM_OP    layer=46   x288    cycles=110880     live<=6144
VECTOR_OP  layer=46   cycles=3        live=3072
LOAD_TILE  layer=47   cycles=165      live=3072
GEMM_OP    layer=47   x288    cycles=110880     live<=6144
VECTOR_OP  layer=47   cycles=3        live=3072
LOAD_TILE  layer=48   cycles=165      live=3072
GEMM_OP    layer=48   x288    cycles=110880     live<=6144
VECTOR_OP  layer=48   cycles=3        live=3072
LOAD_TILE  layer=49   cycles=165      live=3072
GEMM_OP    layer=49   x288    cycles=110880     live<=6144
VECTOR_OP  layer=49   cycles=3        live=3072
LOAD_TILE  layer=50   cycles=165      live=3072
GEMM_OP    layer=50   x288    cycles=110880     live<=6144
VECTOR_OP  layer=50   cycles=3        live=3072
LOAD_TILE  layer=51   cycles=165      live=3072
GEMM_OP    layer=51   x288    cycles=110880     live<=6144
VECTOR_OP  layer=51   cycles=3        live=3072
LOAD_TILE  layer=52   cycles=165      live=3072
GEMM_OP    layer=52   x288    cycles=110880     live<=6144
VECTOR_OP  layer=52   cycles=3        live=3072
LOAD_TILE  layer=53   cycles=165      live=3072
GEMM_OP    layer=53   x288    cycles=110880     live<=6144
VECTOR_OP  layer=53   cycles=3        live=3072
LOAD_TILE  layer=54   cycles=165      live=3072
GEMM_OP    layer=54   x288    cycles=110880     live<=6144
VECTOR_OP  layer=54   cycles=3        live=3072
LOAD_TILE  layer=55   cycles=165      live=3072
GEMM_OP    layer=55   x288    cycles=110880     live<=6144
VECTOR_OP  layer=55   cycles=3        live=3072
LOAD_TILE  layer=56   cycles=165      live=3072
GEMM_OP    layer=56   x288    cycles=110880     live<=6144
VECTOR_OP  layer=56   cycles=3        live=3072
LOAD_TILE  layer=57   cycles=165      live=3072
GEMM_OP    layer=57   x288    cycles=110880     live<=6144
VECTOR_OP  layer=57   cycles=3        live=3072
LOAD_TILE  layer=58   cycles=165      live=3072
GEMM_OP    layer=58   x288    cycles=110880     live<=6144
VECTOR_OP  layer=58   cycles=3        live=3072
LOAD_TILE  layer=59   cycles=165      live=3072
GEMM_OP    layer=59   x288    cycles=110880     live<=6144
VECTOR_OP  layer=59   cycles=3        live=3072
LOAD_TILE  layer=60   cycles=165      live=3072
GEMM_OP    layer=60   x288    cycles=110880     live<=6144
VECTOR_OP  layer=60   cycles=3        live=3072
LOAD_TILE  layer=61   cycles=165      live=3072
GEMM_OP    layer=61   x288    cycles=110880     live<=6144
VECTOR_OP  layer=61   cycles=3        live=3072
LOAD_TILE  layer=62   cycles=165      live=3072
GEMM_OP    layer=62   x72     cycles=27720      live<=4608
VECTOR_OP  layer=62   cycles=1        live=1536
LOAD_TILE  layer=63   cycles=165      live=1536
GEMM_OP    layer=63   x750    cycles=288750     live<=33536
LOAD_TILE  layer=64   cycles=165      live=3072
GEMM_OP    layer=64   x288    cycles=110880     live<=6144
VECTOR_OP  layer=64   cycles=3        live=3072
LOAD_TILE  layer=65   cycles=165      live=3072
GEMM_OP    layer=65   x288    cycles=110880     live<=6144
VECTOR_OP  layer=65   cycles=3        live=3072
LOAD_TILE  layer=66   cycles=165      live=3072
GEMM_OP    layer=66   x72     cycles=27720      live<=4608
VECTOR_OP  layer=66   cycles=1        live=1536
LOAD_TILE  layer=67   cycles=165      live=1536
GEMM_OP    layer=67   x750    cycles=288750     live<=33536
LOAD_TILE  layer=68   cycles=165      live=3072
GEMM_OP    layer=68   x288    cycles=110880     live<=6144
VECTOR_OP  layer=68   cycles=3        live=3072
LOAD_TILE  layer=69   cycles=165      live=3072
GEMM_OP    layer=69   x288    cycles=110880     live<=6144
VECTOR_OP  layer=69   cycles=3        live=3072
LOAD_TILE  layer=70   cycles=165      live=3072
GEMM_OP    layer=70   x72     cycles=27720      live<=4608
VECTOR_OP  layer=70   cycles=1        live=1536
LOAD_TILE  layer=71   cycles=165      live=1536
GEMM_OP    layer=71   x750    cycles=288750     live<=33536
LOAD_TILE  layer=72   cycles=165      live=3072
GEMM_OP    layer=72   x288    cycles=110880     live<=6144
VECTOR_OP  layer=72   cycles=3        live=3072
LOAD_TILE  layer=73   cycles=165      live=3072
GEMM_OP    layer=73   x288    cycles=110880     live<=6144
VECTOR_OP  layer=73   cycles=3        live=3072
LOAD_TILE  layer=74   cycles=165      live=3072
GEMM_OP    layer=74   x72     cycles=27720      live<=4608
VECTOR_OP  layer=74   cycles=1        live=1536
LOAD_TILE  layer=75   cycles=165      live=1536
GEMM_OP    layer=75   x750    cycles=288750     live<=33536
LOAD_TILE  layer=76   cycles=165      live=3072
GEMM_OP    layer=76   x288    cycles=110880     live<=6144
VECTOR_OP  layer=76   cycles=3        live=3072
LOAD_TILE  layer=77   cycles=165      live=3072
GEMM_OP    layer=77   x288    cycles=110880     live<=6144
VECTOR_OP  layer=77   cycles=3        live=3072
LOAD_TILE  layer=78   cycles=165      live=3072
GEMM_OP    layer=78   x72     cycles=27720      live<=4608
VECTOR_OP  layer=78   cycles=1        live=1536
LOAD_TILE  layer=79   cycles=165      live=1536
GEMM_OP    layer=79   x750    cycles=288750     live<=33536
LOAD_TILE  layer=80   cycles=165      live=3072
GEMM_OP    layer=80   x288    cycles=110880     live<=6144
VECTOR_OP  layer=80   cycles=3        live=3072
LOAD_TILE  layer=81   cycles=165      live=3072
GEMM_OP    layer=81   x288    cycles=110880     live<=6144
VECTOR_OP  layer=81   cycles=3        live=3072
LOAD_TILE  layer=82   cycles=165      live=3072
GEMM_OP    layer=82   x72     cycles=27720      live<=4608
VECTOR_OP  layer=82   cycles=1        live=1536
LOAD_TILE  layer=83   cycles=165      live=1536
GEMM_OP    layer=83   x750    cycles=288750     live<=33536
LOAD_TILE  layer=84   cycles=165      live=3072
GEMM_OP    layer=84   x288    cycles=110880     live<=6144
VECTOR_OP  layer=84   cycles=3        live=3072
LOAD_TILE  layer=85   cycles=165      live=3072
GEMM_OP    layer=85   x288    cycles=110880     live<=6144
VECTOR_OP  layer=85   cycles=3        live=3072
LOAD_TILE  layer=86   cycles=165      live=3072
GEMM_OP    layer=86   x72     cycles=27720      live<=4608
VECTOR_OP  layer=86   cycles=1        live=1536
LOAD_TILE  layer=87   cycles=165      live=1536
GEMM_OP    layer=87   x750    cycles=288750     live<=33536
LOAD_TILE  layer=88   cycles=165      live=3072
GEMM_OP    layer=88   x288    cycles=110880     live<=6144
VECTOR_OP  layer=88   cycles=3        live=3072
LOAD_TILE  layer=89   cycles=165      live=3072
GEMM_OP    layer=89   x288    cycles=110880     live<=6144
VECTOR_OP  layer=89   cycles=3        live=3072
LOAD_TILE  layer=90   cycles=165      live=3072
GEMM_OP    layer=90   x72     cycles=27720      live<=4608
VECTOR_OP  layer=90   cycles=1        live=1536
LOAD_TILE  layer=91   cycles=165      live=1536
GEMM_OP    layer=91   x750    cycles=288750     live<=33536
LOAD_TILE  layer=92   cycles=165      live=3072
GEMM_OP    layer=92   x288    cycles=110880     live<=6144
VECTOR_OP  layer=92   cycles=3        live=3072
LOAD_TILE  layer=93   cycles=165      live=3072
GEMM_OP    layer=93   x288    cycles=110880     live<=6144
VECTOR_OP  layer=93   cycles=3        live=3072
LOAD_TILE  layer=94   cycles=165      live=3072
GEMM_OP    layer=94   x72     cycles=27720      live<=4608
VECTOR_OP  layer=94   cycles=1        live=1536
LOAD_TILE  layer=95   cycles=165      live=1536
GEMM_OP    layer=95   x750    cycles=288750     live<=33536
LOAD_TILE  layer=96   cycles=165      live=3072
GEMM_OP    layer=96   x288    cycles=110880     live<=6144
VECTOR_OP  layer=96   cycles=3        live=3072
LOAD_TILE  layer=97   cycles=165      live=3072
GEMM_OP    layer=97   x288    cycles=110880     live<=6144
VECTOR_OP  layer=97   cycles=3        live=3072
LOAD_TILE  layer=98   cycles=165      live=3072
GEMM_OP    layer=98   x72     cycles=27720      live<=4608
VECTOR_OP  layer=98   cycles=1        live=1536
LOAD_TILE  layer=99   cycles=165      live=1536
GEMM_OP    layer=99   x750    cycles=288750     live<=33536
LOAD_TILE  layer=100  cycles=165      live=3072
GEMM_OP    layer=100  x288    cycles=110880     live<=6144
VECTOR_OP  layer=100  cycles=3        live=3072
LOAD_TILE  layer=101  cycles=165      live=3072
GEMM_OP    layer=101  x288    cycles=110880     live<=6144
VECTOR_OP  layer=101  cycles=3        live=3072
LOAD_TILE  layer=102  cycles=165      live=3072
GEMM_OP    layer=102  x72     cycles=27720      live<=4608
VECTOR_OP  layer=102  cycles=1        live=1536
LOAD_TILE  layer=103  cycles=165      live=1536
GEMM_OP    layer=103  x750    cycles=288750     live<=33536
LOAD_TILE  layer=104  cycles=165      live=3072
GEMM_OP    layer=104  x288    cycles=110880     live<=6144
VECTOR_OP  layer=104  cycles=3        live=3072
LOAD_TILE  layer=105  cycles=165      live=3072
GEMM_OP    layer=105  x288    cycles=110880     live<=6144
VECTOR_OP  layer=105  cycles=3        live=3072
LOAD_TILE  layer=106  cycles=165      live=3072
GEMM_OP    layer=106  x72     cycles=27720      live<=4608
VECTOR_OP  layer=106  cycles=1        live=1536
LOAD_TILE  layer=107  cycles=165      live=1536
GEMM_OP    layer=107  x750    cycles=288750     live<=33536
LOAD_TILE  layer=108  cycles=165      live=3072
GEMM_OP    layer=108  x288    cycles=110880     live<=6144
VECTOR_OP  layer=108  cycles=3        live=3072
LOAD_TILE  layer=109  cycles=165      live=3072
GEMM_OP    layer=109  x288    cycles=110880     live<=6144
VECTOR_OP  layer=109  cycles=3        live=3072
LOAD_TILE  layer=110  cycles=165      live=3072
GEMM_OP    layer=110  x72     cycles=27720      live<=4608
VECTOR_OP  layer=110  cycles=1        live=1536
LOAD_TILE  layer=111  cycles=165      live=1536
GEMM_OP    layer=111  x750    cycles=288750     live<=33536
LOAD_TILE  layer=112  cycles=165      live=3072
GEMM_OP    layer=112  x288    cycles=110880     live<=6144
VECTOR_OP  layer=112  cycles=3        live=3072
LOAD_TILE  layer=113  cycles=165      live=3072
GEMM_OP    layer=113  x288    cycles=110880     live<=6144
VECTOR_OP  layer=113  cycles=3        live=3072
LOAD_TILE  layer=114  cycles=165      live=3072
GEMM_OP    layer=114  x72     cycles=27720      live<=4608
VECTOR_OP  layer=114  cycles=1        live=1536
LOAD_TILE  layer=115  cycles=165      live=1536
GEMM_OP    layer=115  x750    cycles=288750     live<=33536
LOAD_TILE  layer=116  cycles=165      live=3072
GEMM_OP    layer=116  x288    cycles=110880     live<=6144
VECTOR_OP  layer=116  cycles=3        live=3072
LOAD_TILE  layer=117  cycles=165      live=3072
GEMM_OP    layer=117  x288    cycles=110880     live<=6144
VECTOR_OP  layer=117  cycles=3        live=3072
LOAD_TILE  layer=118  cycles=165      live=3072
GEMM_OP    layer=118  x72     cycles=27720      live<=4608
VECTOR_OP  layer=118  cycles=1        live=1536
LOAD_TILE  layer=119  cycles=165      live=1536
GEMM_OP    layer=119  x750    cycles=288750     live<=33536
LOAD_TILE  layer=120  cycles=165      live=3072
GEMM_OP    layer=120  x288    cycles=110880     live<=6144
VECTOR_OP  layer=120  cycles=3        live=3072
LOAD_TILE  layer=121  cycles=165      live=3072
GEMM_OP    layer=121  x288    cycles=110880     live<=6144
VECTOR_OP  layer=121  cycles=3        live=3072
LOAD_TILE  layer=122  cycles=165      live=3072
GEMM_OP    layer=122  x72     cycles=27720      live<=4608
VECTOR_OP  layer=122  cycles=1        live=1536
LOAD_TILE  layer=123  cycles=165      live=1536
GEMM_OP    layer=123  x750    cycles=288750     live<=33536
LOAD_TILE  layer=124  cycles=165      live=3072
GEMM_OP    layer=124  x288    cycles=110880     live<=6144
VECTOR_OP  layer=124  cycles=3        live=3072
LOAD_TILE  layer=125  cycles=165      live=3072
GEMM_OP    layer=125  x288    cycles=110880     live<=6144
VECTOR_OP  layer=125  cycles=3        live=3072
LOAD_TILE  layer=126  cycles=165      live=3072
GEMM_OP    layer=126  x72     cycles=27720      live<=4608
VECTOR_OP  layer=126  cycles=1        live=1536
LOAD_TILE  layer=127  cycles=165      live=1536
GEMM_OP    layer=127  x750    cycles=288750     live<=33536
LOAD_TILE  layer=128  cycles=165      live=3072
GEMM_OP    layer=128  x288    cycles=110880     live<=6144
VECTOR_OP  layer=128  cycles=3        live=3072
LOAD_TILE  layer=129  cycles=165      live=3072
GEMM_OP    layer=129  x288    cycles=110880     live<=6144
VECTOR_OP  layer=129  cycles=3        live=3072
LOAD_TILE  layer=130  cycles=165      live=3072
GEMM_OP    layer=130  x72     cycles=27720      live<=4608
VECTOR_OP  layer=130  cycles=1        live=1536
LOAD_TILE  layer=131  cycles=165      live=1536
GEMM_OP    layer=131  x750    cycles=288750     live<=33536
LOAD_TILE  layer=132  cycles=165      live=3072
GEMM_OP    layer=132  x288    cycles=110880     live<=6144
VECTOR_OP  layer=132  cycles=3        live=3072
LOAD_TILE  layer=133  cycles=165      live=3072
GEMM_OP    layer=133  x288    cycles=110880     live<=6144
VECTOR_OP  layer=133  cycles=3        live=3072
LOAD_TILE  layer=134  cycles=165      live=3072
GEMM_OP    layer=134  x72     cycles=27720      live<=4608
VECTOR_OP  layer=134  cycles=1        live=1536
LOAD_TILE  layer=135  cycles=165      live=1536
GEMM_OP    layer=135  x750    cycles=288750     live<=33536
LOAD_TILE  layer=136  cycles=165      live=3072
GEMM_OP    layer=136  x288    cycles=110880     live<=6144
VECTOR_OP  layer=136  cycles=3        live=3072
LOAD_TILE  layer=137  cycles=165      live=3072
GEMM_OP    layer=137  x288    cycles=110880     live<=6144
VECTOR_OP  layer=137  cycles=3        live=3072
LOAD_TILE  layer=138  cycles=165      live=3072
GEMM_OP    layer=138  x72     cycles=27720      live<=4608
VECTOR_OP  layer=138  cycles=1        live=1536
LOAD_TILE  layer=139  cycles=165      live=1536
GEMM_OP    layer=139  x750    cycles=288750     live<=33536
LOAD_TILE  layer=140  cycles=165      live=3072
GEMM_OP    layer=140  x288    cycles=110880     live<=6144
VECTOR_OP  layer=140  cycles=3        live=3072
LOAD_TILE  layer=141  cycles=165      live=3072
GEMM_OP    layer=141  x288    cycles=110880     live<=6144
VECTOR_OP  layer=141  cycles=3        live=3072
LOAD_TILE  layer=142  cycles=165      live=3072
GEMM_OP    layer=142  x72     cycles=27720      live<=4608
VECTOR_OP  layer=142  cycles=1        live=1536
LOAD_TILE  layer=143  cycles=165      live=1536
GEMM_OP    layer=143  x750    cycles=288750     live<=33536
LOAD_TILE  layer=144  cycles=165      live=3072
GEMM_OP    layer=144  x288    cycles=110880     live<=6144
VECTOR_OP  layer=144  cycles=3        live=3072
LOAD_TILE  layer=145  cycles=165      live=3072
GEMM_OP    layer=145  x288    cycles=110880     live<=6144
VECTOR_OP  layer=145  cycles=3        live=3072
LOAD_TILE  layer=146  cycles=165      live=3072
GEMM_OP    layer=146  x72     cycles=27720      live<=4608
VECTOR_OP  layer=146  cycles=1        live=1536
LOAD_TILE  layer=147  cycles=165      live=1536
GEMM_OP    layer=147  x750    cycles=288750     live<=33536
LOAD_TILE  layer=148  cycles=165      live=3072
GEMM_OP    layer=148  x288    cycles=110880     live<=6144
VECTOR_OP  layer=148  cycles=3        live=3072
LOAD_TILE  layer=149  cycles=165      live=3072
GEMM_OP    layer=149  x288    cycles=110880     live<=6144
VECTOR_OP  layer=149  cycles=3        live=3072
LOAD_TILE  layer=150  cycles=165      live=3072
GEMM_OP    layer=150  x72     cycles=27720      live<=4608
VECTOR_OP  layer=150  cycles=1        live=1536
LOAD_TILE  layer=151  cycles=165      live=1536
GEMM_OP    layer=151  x750    cycles=288750     live<=33536
LOAD_TILE  layer=152  cycles=165      live=3072
GEMM_OP    layer=152  x288    cycles=110880     live<=6144
VECTOR_OP  layer=152  cycles=3        live=3072
LOAD_TILE  layer=153  cycles=165      live=3072
GEMM_OP    layer=153  x288    cycles=110880     live<=6144
VECTOR_OP  layer=153  cycles=3        live=3072
LOAD_TILE  layer=154  cycles=165      live=3072
GEMM_OP    layer=154  x72     cycles=27720      live<=4608
VECTOR_OP  layer=154  cycles=1        live=1536
LOAD_TILE  layer=155  cycles=165      live=1536
GEMM_OP    layer=155  x750    cycles=288750     live<=33536
LOAD_TILE  layer=156  cycles=165      live=3072
GEMM_OP    layer=156  x288    cycles=110880     live<=6144
VECTOR_OP  layer=156  cycles=3        live=3072
LOAD_TILE  layer=157  cycles=165      live=3072
GEMM_OP    layer=157  x288    cycles=110880     live<=6144
VECTOR_OP  layer=157  cycles=3        live=3072
LOAD_TILE  layer=158  cycles=165      live=3072
GEMM_OP    layer=158  x72     cycles=27720      live<=4608
VECTOR_OP  layer=158  cycles=1        live=1536
LOAD_TILE  layer=159  cycles=165      live=1536
GEMM_OP    layer=159  x750    cycles=288750     live<=33536
LOAD_TILE  layer=160  cycles=165      live=3072
GEMM_OP    layer=160  x288    cycles=110880     live<=6144
VECTOR_OP  layer=160  cycles=3        live=3072
LOAD_TILE  layer=161  cycles=165      live=3072
GEMM_OP    layer=161  x288    cycles=110880     live<=6144
VECTOR_OP  layer=161  cycles=3        live=3072
LOAD_TILE  layer=162  cycles=165      live=3072
GEMM_OP    layer=162  x72     cycles=27720      live<=4608
VECTOR_OP  layer=162  cycles=1        live=1536
LOAD_TILE  layer=163  cycles=165      live=1536
GEMM_OP    layer=163  x750    cycles=288750     live<=33536
LOAD_TILE  layer=164  cycles=165      live=3072
GEMM_OP    layer=164  x288    cycles=110880     live<=6144
VECTOR_OP  layer=164  cycles=3        live=3072
LOAD_TILE  layer=165  cycles=165      live=3072
GEMM_OP    layer=165  x288    cycles=110880     live<=6144
VECTOR_OP  layer=165  cycles=3        live=3072
LOAD_TILE  layer=166  cycles=165      live=3072
GEMM_OP    layer=166  x72     cycles=27720      live<=4608
VECTOR_OP  layer=166  cycles=1        live=1536
LOAD_TILE  layer=167  cycles=165      live=1536
GEMM_OP    layer=167  x750    cycles=288750     live<=33536
LOAD_TILE  layer=168  cycles=165      live=3072
GEMM_OP    layer=168  x288    cycles=110880     live<=6144
VECTOR_OP  layer=168  cycles=3        live=3072
LOAD_TILE  layer=169  cycles=165      live=3072
GEMM_OP    layer=169  x288    cycles=110880     live<=6144
VECTOR_OP  layer=169  cycles=3        live=3072
LOAD_TILE  layer=170  cycles=165      live=3072
GEMM_OP    layer=170  x72     cycles=27720      live<=4608
VECTOR_OP  layer=170  cycles=1        live=1536
LOAD_TILE  layer=171  cycles=165      live=1536
GEMM_OP    layer=171  x750    cycles=288750     live<=33536
LOAD_TILE  layer=172  cycles=165      live=3072
GEMM_OP    layer=172  x288    cycles=110880     live<=6144
VECTOR_OP  layer=172  cycles=3        live=3072
LOAD_TILE  layer=173  cycles=165      live=3072
GEMM_OP    layer=173  x288    cycles=110880     live<=6144
VECTOR_OP  layer=173  cycles=3        live=3072
LOAD_TILE  layer=174  cycles=165      live=3072
GEMM_OP    layer=174  x72     cycles=27720      live<=4608
VECTOR_OP  layer=174  cycles=1        live=1536
LOAD_TILE  layer=175  cycles=165      live=1536
GEMM_OP    layer=175  x750    cycles=288750     live<=33536
LOAD_TILE  layer=176  cycles=165      live=3072
GEMM_OP    layer=176  x288    cycles=110880     live<=6144
VECTOR_OP  layer=176  cycles=3        live=3072
LOAD_TILE  layer=177  cycles=165      live=3072
GEMM_OP    layer=177  x288    cycles=110880     live<=6144
VECTOR_OP  layer=177  cycles=3        live=3072
LOAD_TILE  layer=178  cycles=165      live=3072
GEMM_OP    layer=178  x72     cycles=27720      live<=4608
VECTOR_OP  layer=178  cycles=1        live=1536
LOAD_TILE  layer=179  cycles=165      live=1536
GEMM_OP    layer=179  x750    cycles=288750     live<=33536
