package targets

// m88000Maril models the Motorola 88100: a single-issue RISC whose
// doubles live in PAIRS of the 32 general registers (the %equiv overlay,
// exercising register-pair allocation and the paper's *movd half-register
// escape), with separate floating point add and multiply pipelines and a
// compare-then-branch style instruction set like TOYP's.
const m88000Maril = `
%machine M88000;

declare {
    %reg r[0:31] (int, ptr);      /* general register file */
    %reg d[0:15] (double);        /* doubles in even/odd register pairs */
    %equiv r[0] d[0];             /* d[i] overlays r[2i], r[2i+1] */
    %resource IF, ID, EX, MEMS, WB;
    %resource FA1, FA2, FA3, FA4, FA5;  /* FP add pipe */
    %resource FM1, FM2, FM3, FM4, FM5, FM6; /* FP multiply pipe */
    %resource FDIV;
    %resource IDIV;
    %def imm16 [-32768:32767];
    %def uimm16 [0:65535];
    %def zero [0:0];
    %def addr32 [-2147483648:2147483647] +addr;
    %label rlab [-65536:65535] +relative;
    %label flab [-67108864:67108863];
    %memory m[0:2147483647];
}

cwvm {
    %general (int, ptr) r;
    %general (double) d;
    %allocable r[2:25], d[2:12];
    %calleesave r[14:25], d[7:12];
    %sp r[31] +down;
    %fp r[30] +down;
    %retaddr r[1];
    %hard r[0] 0;
    %arg (int) r[2] 1;
    %arg (int) r[3] 2;
    %arg (int) r[4] 3;
    %arg (int) r[5] 4;
    %arg (double) d[1] 1;     /* slots 1-2: r2,r3 */
    %arg (double) d[2] 3;     /* slots 3-4: r4,r5 */
    %result r[2] (int);
    %result d[1] (double);    /* r2,r3 */
    %stackarg 0;
}

instr {
    /* Memory. */
    %instr ld r, r, #imm16 {$1 = m[$2 + $3];} [IF; ID; EX; MEMS; WB] (1,3,0)
    %instr ld.b r, r, #imm16 (char) {$1 = m[$2 + $3];} [IF; ID; EX; MEMS; WB] (1,3,0)
    %instr ld.h r, r, #imm16 (short) {$1 = m[$2 + $3];} [IF; ID; EX; MEMS; WB] (1,3,0)
    %instr ld.d d, r, #imm16 (double) {$1 = m[$2 + $3];} [IF; ID; EX; MEMS; MEMS; WB] (1,3,0)
    %instr st r, r, #imm16 {m[$2 + $3] = $1;} [IF; ID; EX; MEMS; WB] (1,1,0)
    %instr st.b r, r, #imm16 (char) {m[$2 + $3] = $1;} [IF; ID; EX; MEMS; WB] (1,1,0)
    %instr st.h r, r, #imm16 (short) {m[$2 + $3] = $1;} [IF; ID; EX; MEMS; WB] (1,1,0)
    %instr st.d d, r, #imm16 (double) {m[$2 + $3] = $1;} [IF; ID; EX; MEMS; MEMS; WB] (1,1,0)

    /* Integer unit. */
    %instr addi r, r, #imm16 {$1 = $2 + $3;} [IF; ID; EX; WB] (1,1,0)
    %instr add r, r, r {$1 = $2 + $3;} [IF; ID; EX; WB] (1,1,0)
    %instr sub r, r, r {$1 = $2 - $3;} [IF; ID; EX; WB] (1,1,0)
    %instr neg r, r {$1 = -$2;} [IF; ID; EX; WB] (1,1,0)
    %instr mul r, r, r {$1 = $2 * $3;} [IF; ID; FM1; FM2; FM3; FM4] (1,4,0)
    %instr divs r, r, r {$1 = $2 / $3;} [IF; ID; IDIV] (1,38,0)
    %instr rems r, r, r {$1 = $2 % $3;} [IF; ID; IDIV] (1,38,0)
    %instr and r, r, r {$1 = $2 & $3;} [IF; ID; EX; WB] (1,1,0)
    %instr andi r, r, #uimm16 {$1 = $2 & $3;} [IF; ID; EX; WB] (1,1,0)
    %instr or r, r, r {$1 = $2 | $3;} [IF; ID; EX; WB] (1,1,0)
    %instr ori r, r, #uimm16 {$1 = $2 | $3;} [IF; ID; EX; WB] (1,1,0)
    %instr xor r, r, r {$1 = $2 ^ $3;} [IF; ID; EX; WB] (1,1,0)
    %instr not r, r {$1 = ~$2;} [IF; ID; EX; WB] (1,1,0)
    %instr mak r, r, r {$1 = $2 << $3;} [IF; ID; EX; WB] (1,1,0)
    %instr maki r, r, #imm16 {$1 = $2 << $3;} [IF; ID; EX; WB] (1,1,0)
    %instr ext r, r, r {$1 = $2 >> $3;} [IF; ID; EX; WB] (1,1,0)
    %instr exti r, r, #imm16 {$1 = $2 >> $3;} [IF; ID; EX; WB] (1,1,0)

    /* Constants and addresses. */
    %instr li r, #imm16 {$1 = $2;} [IF; ID; EX; WB] (1,1,0)
    %instr or.u r, #any {$1 = high($2);} [IF; ID; EX; WB] (1,1,0)
    %instr or.l r, r, #any {$1 = $2 | low($3);} [IF; ID; EX; WB] (1,1,0)
    %instr la r, #addr32 {$1 = $2;} [IF; ID; EX; WB] (1,2,0)

    /* Generic compares: the 88100 cmp produces a condition value that
       bcnd-style branches test against zero. */
    %instr cmpi r, r, #imm16 {$1 = $2 :: $3;} [IF; ID; EX; WB] (1,1,0)
    %instr cmp r, r, r {$1 = $2 :: $3;} [IF; ID; EX; WB] (1,1,0)
    %instr fcmp r, d, d {$1 = $2 :: $3;} [IF; ID; FA1; FA2; FA3] (1,3,0)
    %instr slt r, r, r {$1 = $2 < $3;} [IF; ID; EX; WB] (1,1,0)

    /* Floating point (operands in register pairs). */
    %instr fadd.d d, d, d (double) {$1 = $2 + $3;} [IF; ID; FA1; FA2; FA3; FA4; FA5] (1,5,0)
    %instr fsub.d d, d, d (double) {$1 = $2 - $3;} [IF; ID; FA1; FA2; FA3; FA4; FA5] (1,5,0)
    %instr fmul.d d, d, d (double) {$1 = $2 * $3;} [IF; ID; FM1; FM2; FM3; FM4; FM5; FM6] (1,6,0)
    %instr fdiv.d d, d, d (double) {$1 = $2 / $3;} [IF; ID; FDIV] (1,30,0)
    %instr fneg.d d, d (double) {$1 = -$2;} [IF; ID; FA1; FA2] (1,2,0)
    %instr flt.d d, r (double) {$1 = (double)$2;} [IF; ID; FA1; FA2; FA3] (1,3,0)
    %instr int.d r, d (int) {$1 = (int)$2;} [IF; ID; FA1; FA2; FA3] (1,3,0)

    /* Branches: one delay slot, compare-value style. */
    %instr bcnd.eq0 r, #rlab {if ($1 == 0) goto $2;} [IF; ID; EX] (1,2,1)
    %instr bcnd.ne0 r, #rlab {if ($1 != 0) goto $2;} [IF; ID; EX] (1,2,1)
    %instr bcnd.lt0 r, #rlab {if ($1 < 0) goto $2;} [IF; ID; EX] (1,2,1)
    %instr bcnd.le0 r, #rlab {if ($1 <= 0) goto $2;} [IF; ID; EX] (1,2,1)
    %instr bcnd.gt0 r, #rlab {if ($1 > 0) goto $2;} [IF; ID; EX] (1,2,1)
    %instr bcnd.ge0 r, #rlab {if ($1 >= 0) goto $2;} [IF; ID; EX] (1,2,1)
    %instr br #rlab {goto $1;} [IF; ID] (1,1,1)
    %instr bsr #flab {call $1;} [IF; ID] (1,1,1)
    %instr jmp.r1 {ret;} [IF; ID] (1,1,1)
    %instr nop {;} [IF; ID] (1,1,0)

    /* Moves: doubles move through their register-pair halves (the
       paper's *movd escape as a %seq). */
    %move [s.mov] mov r, r {$1 = $2;} [IF; ID; EX; WB] (1,1,0)
    %seq movd d, d (double) {$1 = $2;} = s.mov(lo($1), lo($2)); s.mov(hi($1), hi($2));

    /* The write-back bus priority effect (paper §5): a store of a
       just-produced FP add result sees one extra cycle. */
    %aux fadd.d : st.d (1.$1 == 2.$1) (6)
    %aux fmul.d : st.d (1.$1 == 2.$1) (7)

    /* Glue: compare-and-branch expansion; big constants. */
    %glue r, r, #rlab { if ($1 == $2) goto $3 ==> if (($1 :: $2) == 0) goto $3; } if !fits($2, zero);
    %glue r, r, #rlab { if ($1 != $2) goto $3 ==> if (($1 :: $2) != 0) goto $3; } if !fits($2, zero);
    %glue r, r, #rlab { if ($1 < $2) goto $3 ==> if (($1 :: $2) < 0) goto $3; } if !fits($2, zero);
    %glue r, r, #rlab { if ($1 <= $2) goto $3 ==> if (($1 :: $2) <= 0) goto $3; } if !fits($2, zero);
    %glue r, r, #rlab { if ($1 > $2) goto $3 ==> if (($1 :: $2) > 0) goto $3; } if !fits($2, zero);
    %glue r, r, #rlab { if ($1 >= $2) goto $3 ==> if (($1 :: $2) >= 0) goto $3; } if !fits($2, zero);
    %glue d, d, #rlab { if ($1 == $2) goto $3 ==> if (($1 :: $2) == 0) goto $3; }
    %glue d, d, #rlab { if ($1 != $2) goto $3 ==> if (($1 :: $2) != 0) goto $3; }
    %glue d, d, #rlab { if ($1 < $2) goto $3 ==> if (($1 :: $2) < 0) goto $3; }
    %glue d, d, #rlab { if ($1 <= $2) goto $3 ==> if (($1 :: $2) <= 0) goto $3; }
    %glue d, d, #rlab { if ($1 > $2) goto $3 ==> if (($1 :: $2) > 0) goto $3; }
    %glue d, d, #rlab { if ($1 >= $2) goto $3 ==> if (($1 :: $2) >= 0) goto $3; }
    %glue #any { $1 ==> (high($1) | low($1)); } if !fits($1, imm16);
}
`
