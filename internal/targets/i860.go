package targets

// i860Maril models the Intel i860's dual-instruction mode and explicitly
// advanced floating point pipelines (paper §4.5-4.6, Figures 4, 5 and 7):
//
//   - An integer core (IEX/LS resources) and a floating point long
//     instruction word can issue in the same cycle (dual issue falls out
//     of disjoint resources).
//   - The FP multiplier (M1,M2,M3) and adder (A1,A2,A3) are explicitly
//     advanced pipelines: each stage is a sub-operation instruction that
//     writes a temporal latch register on its clock (clk_m / clk_a).
//   - Packing classes name the long-word opcodes a sub-operation may
//     appear in: m-ops in pfmul/m12apm, a-ops in pfadd/m12apm, so one
//     multiplier and one adder sub-op pack into an m12apm dual-operation
//     word (Figure 7's a1m chaining op feeds the multiplier result into
//     the adder without touching a general register — the T register).
//
// The code selector produces sub-operation sequences through %seq
// directives (fmul.dd = m1;m2;m3;mwb), which the temporal scheduler then
// overlaps and packs.
const i860Maril = `
%machine I860;

declare {
    %clock clk_m;                 /* multiplier pipeline clock */
    %clock clk_a;                 /* adder pipeline clock */
    %reg r[0:31] (int, ptr);      /* integer core registers */
    %reg f[0:31] (double);        /* FP register file */
    %reg mr1 (double; clk_m) +temporal;  /* multiplier stage latches */
    %reg mr2 (double; clk_m) +temporal;
    %reg mr3 (double; clk_m) +temporal;
    %reg ar1 (double; clk_a) +temporal;  /* adder stage latches */
    %reg ar2 (double; clk_a) +temporal;
    %reg ar3 (double; clk_a) +temporal;
    %resource IEX, LS;                   /* integer core, load/store port */
    %resource M1, M2, M3;                /* multiplier stages */
    %resource A1, A2, A3;                /* adder stages */
    %resource FWBB;                      /* FP result write-back bus */
    %resource FDIV, IDIV;
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
    %general (double) f;
    %allocable r[4:27], f[2:27];
    %calleesave r[4:15], f[2:7];
    %sp r[2] +down;
    %fp r[3] +down;
    %retaddr r[1];
    %hard r[0] 0;
    %hard f[0] 0;
    %arg (int) r[16] 1;
    %arg (int) r[17] 2;
    %arg (int) r[18] 3;
    %arg (int) r[19] 4;
    %arg (double) f[8] 1;
    %arg (double) f[10] 3;
    %result r[16] (int);
    %result f[8] (double);
    %stackarg 0;
}

instr {
    /* Memory: integer loads through the core, FP loads through the
       pipelined load/store port. */
    %instr ld.l r, r, #imm16 {$1 = m[$2 + $3];} [IEX; LS] (1,2,0)
    %instr ld.b r, r, #imm16 (char) {$1 = m[$2 + $3];} [IEX; LS] (1,2,0)
    %instr fld.d f, r, #imm16 (double) {$1 = m[$2 + $3];} [IEX, LS; LS] (1,3,0)
    %instr st.l r, r, #imm16 {m[$2 + $3] = $1;} [IEX; LS] (1,1,0)
    %instr st.b r, r, #imm16 (char) {m[$2 + $3] = $1;} [IEX; LS] (1,1,0)
    %instr fst.d f, r, #imm16 (double) {m[$2 + $3] = $1;} [IEX, LS; LS] (1,1,0)

    /* Integer core. */
    %instr addi r, r, #imm16 {$1 = $2 + $3;} [IEX] (1,1,0)
    %instr addu r, r, r {$1 = $2 + $3;} [IEX] (1,1,0)
    %instr subu r, r, r {$1 = $2 - $3;} [IEX] (1,1,0)
    %instr neg r, r {$1 = -$2;} [IEX] (1,1,0)
    %instr imul r, r, r {$1 = $2 * $3;} [IEX; M1; M2; M3] (1,4,0)
    %instr idiv r, r, r {$1 = $2 / $3;} [IEX; IDIV] (1,40,0)
    %instr irem r, r, r {$1 = $2 % $3;} [IEX; IDIV] (1,40,0)
    %instr and r, r, r {$1 = $2 & $3;} [IEX] (1,1,0)
    %instr andi r, r, #uimm16 {$1 = $2 & $3;} [IEX] (1,1,0)
    %instr or r, r, r {$1 = $2 | $3;} [IEX] (1,1,0)
    %instr ori r, r, #uimm16 {$1 = $2 | $3;} [IEX] (1,1,0)
    %instr xor r, r, r {$1 = $2 ^ $3;} [IEX] (1,1,0)
    %instr not r, r {$1 = ~$2;} [IEX] (1,1,0)
    %instr shl r, r, r {$1 = $2 << $3;} [IEX] (1,1,0)
    %instr shli r, r, #imm16 {$1 = $2 << $3;} [IEX] (1,1,0)
    %instr shra r, r, r {$1 = $2 >> $3;} [IEX] (1,1,0)
    %instr shrai r, r, #imm16 {$1 = $2 >> $3;} [IEX] (1,1,0)
    %instr li r, #imm16 {$1 = $2;} [IEX] (1,1,0)
    %instr orh r, #any {$1 = high($2);} [IEX] (1,1,0)
    %instr orl r, r, #any {$1 = $2 | low($3);} [IEX] (1,1,0)
    %instr la r, #addr32 {$1 = $2;} [IEX] (1,2,0)
    %instr cmpi r, r, #imm16 {$1 = $2 :: $3;} [IEX] (1,1,0)
    %instr cmp r, r, r {$1 = $2 :: $3;} [IEX] (1,1,0)
    %instr slt r, r, r {$1 = $2 < $3;} [IEX] (1,1,0)

    /* FP compares and conversions run down the adder pipe as complete
       (implicitly advanced) operations. */
    %instr fcmp r, f, f {$1 = $2 :: $3;} [IEX; A1; A2; A3] (1,3,0)
    %instr fix.d r, f (int) {$1 = (int)$2;} [A1; A2; A3] (1,3,0)
    %instr float.d f, r (double) {$1 = (double)$2;} [A1; A2; A3] (1,3,0)
    %instr fdiv.dd f, f, f (double) {$1 = $2 / $3;} [FDIV] (1,38,0)
    %instr fneg.dd f, f (double) {$1 = -$2;} [A1; A2; A3] (1,3,0)

    /* Explicitly advanced pipeline sub-operations (Figure 5). Each uses
       exactly one stage resource and advances its clock; the classes
       name the long-instruction words it may appear in. */
    %instr m1 f, f (double; clk_m) {mr1 = $1 * $2;} [M1] (1,1,0) <pfmul, m12apm>
    %instr m2 (double; clk_m) {mr2 = mr1;} [M2] (1,1,0) <pfmul, m12apm>
    %instr m3 (double; clk_m) {mr3 = mr2;} [M3] (1,1,0) <pfmul, m12apm>
    %instr mwb f (double; clk_m) {$1 = mr3;} [FWBB] (1,1,0) <pfmul, m12apm>
    %instr a1 f, f (double; clk_a) {ar1 = $1 + $2;} [A1] (1,1,0) <pfadd, m12apm>
    %instr a1s f, f (double; clk_a) {ar1 = $1 - $2;} [A1] (1,1,0) <pfadd, m12apm>
    %instr a2 (double; clk_a) {ar2 = ar1;} [A2] (1,1,0) <pfadd, m12apm>
    %instr a3 (double; clk_a) {ar3 = ar2;} [A3] (1,1,0) <pfadd, m12apm>
    %instr awb f (double; clk_a) {$1 = ar3;} [FWBB] (1,1,0) <pfadd, m12apm>
    /* Chaining: the multiplier result enters the adder through the T
       register without touching a general register. */
    %instr a1m f (double; clk_a) {ar1 = mr3 + $1;} [A1] (1,1,0) <m12apm>

    /* Complete FP operations expand into sub-operation sequences that
       the temporal scheduler overlaps (the paper's code selector does
       the same for the i860). The fused multiply-add forms chain the
       multiplier output into the adder through a1m (the T register),
       never touching a general register. */
    %seq fmadd.dd f, f, f, f (double) {$1 = $2 * $3 + $4;} = m1($2, $3); m2; m3; a1m($4); a2; a3; awb($1);
    %seq fmadd2.dd f, f, f, f (double) {$1 = $4 + $2 * $3;} = m1($2, $3); m2; m3; a1m($4); a2; a3; awb($1);
    %seq fmul.dd f, f, f (double) {$1 = $2 * $3;} = m1($2, $3); m2; m3; mwb($1);
    %seq fadd.dd f, f, f (double) {$1 = $2 + $3;} = a1($2, $3); a2; a3; awb($1);
    %seq fsub.dd f, f, f (double) {$1 = $2 - $3;} = a1s($2, $3); a2; a3; awb($1);

    /* Control transfer: one delay slot. */
    %instr bte0 r, #rlab {if ($1 == 0) goto $2;} [IEX] (1,1,1)
    %instr btne0 r, #rlab {if ($1 != 0) goto $2;} [IEX] (1,1,1)
    %instr blt0 r, #rlab {if ($1 < 0) goto $2;} [IEX] (1,1,1)
    %instr ble0 r, #rlab {if ($1 <= 0) goto $2;} [IEX] (1,1,1)
    %instr bgt0 r, #rlab {if ($1 > 0) goto $2;} [IEX] (1,1,1)
    %instr bge0 r, #rlab {if ($1 >= 0) goto $2;} [IEX] (1,1,1)
    %instr br #rlab {goto $1;} [IEX] (1,1,1)
    %instr callf #flab {call $1;} [IEX] (1,1,1)
    %instr bri.r1 {ret;} [IEX] (1,1,1)
    %instr nop {;} [IEX] (1,1,0)

    /* Moves. */
    %move mov r, r {$1 = $2;} [IEX] (1,1,0)
    %move fmov.dd f, f (double) {$1 = $2;} [A1; A2; A3] (1,3,0)

    /* Glue. */
    %glue r, r, #rlab { if ($1 == $2) goto $3 ==> if (($1 :: $2) == 0) goto $3; } if !fits($2, zero);
    %glue r, r, #rlab { if ($1 != $2) goto $3 ==> if (($1 :: $2) != 0) goto $3; } if !fits($2, zero);
    %glue r, r, #rlab { if ($1 < $2) goto $3 ==> if (($1 :: $2) < 0) goto $3; } if !fits($2, zero);
    %glue r, r, #rlab { if ($1 <= $2) goto $3 ==> if (($1 :: $2) <= 0) goto $3; } if !fits($2, zero);
    %glue r, r, #rlab { if ($1 > $2) goto $3 ==> if (($1 :: $2) > 0) goto $3; } if !fits($2, zero);
    %glue r, r, #rlab { if ($1 >= $2) goto $3 ==> if (($1 :: $2) >= 0) goto $3; } if !fits($2, zero);
    %glue f, f, #rlab { if ($1 == $2) goto $3 ==> if (($1 :: $2) == 0) goto $3; }
    %glue f, f, #rlab { if ($1 != $2) goto $3 ==> if (($1 :: $2) != 0) goto $3; }
    %glue f, f, #rlab { if ($1 < $2) goto $3 ==> if (($1 :: $2) < 0) goto $3; }
    %glue f, f, #rlab { if ($1 <= $2) goto $3 ==> if (($1 :: $2) <= 0) goto $3; }
    %glue f, f, #rlab { if ($1 > $2) goto $3 ==> if (($1 :: $2) > 0) goto $3; }
    %glue f, f, #rlab { if ($1 >= $2) goto $3 ==> if (($1 :: $2) >= 0) goto $3; }
    %glue #any { $1 ==> (high($1) | low($1)); } if !fits($1, imm16);
}
`
