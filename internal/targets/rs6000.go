package targets

// rs6000Maril realizes the paper's §5 claim that Marion "should be able
// to model multiple instruction issue on the IBM RS/6000 by giving each
// functional unit a separate set of resources": a POWER-like machine
// with independent branch, fixed-point and floating point units that can
// each accept one instruction per cycle (three-way issue), NO delay
// slots (branches resolve in the branch unit), and a fused
// multiply-add. Instructions using different units cause no structural
// hazards and schedule in the same cycle.
const rs6000Maril = `
%machine RS6000;

declare {
    %reg r[0:31] (int, ptr);
    %reg f[0:31] (double);
    %resource BRU;                     /* branch unit */
    %resource FXD, FXC, FXW;           /* fixed point: decode/cache/writeback */
    %resource FPD, FPM, FPA, FPW;      /* float: decode/multiply/add/writeback */
    %def imm16 [-32768:32767];
    %def uimm16 [0:65535];
    %def zero [0:0];
    %def addr32 [-2147483648:2147483647] +addr;
    %label rlab [-8388608:8388607] +relative;
    %label flab [-33554432:33554431];
    %memory m[0:2147483647];
}

cwvm {
    %general (int, ptr) r;
    %general (double) f;
    %allocable r[3:28], f[1:29];
    %calleesave r[13:28], f[14:29];
    %sp r[1] +down;
    %fp r[31] +down;
    %retaddr r[0];
    %hard r[2] 0;
    %arg (int) r[3] 1;
    %arg (int) r[4] 2;
    %arg (int) r[5] 3;
    %arg (int) r[6] 4;
    %arg (double) f[1] 1;
    %arg (double) f[2] 3;
    %result r[3] (int);
    %result f[1] (double);
    %stackarg 0;
}

instr {
    /* Fixed point unit. */
    %instr l r, r, #imm16 {$1 = m[$2 + $3];} [FXD; FXC; FXW] (1,2,0)
    %instr lbz r, r, #imm16 (char) {$1 = m[$2 + $3];} [FXD; FXC; FXW] (1,2,0)
    %instr lha r, r, #imm16 (short) {$1 = m[$2 + $3];} [FXD; FXC; FXW] (1,2,0)
    %instr lfd f, r, #imm16 (double) {$1 = m[$2 + $3];} [FXD; FXC; FXW] (1,2,0)
    %instr st r, r, #imm16 {m[$2 + $3] = $1;} [FXD; FXC; FXW] (1,1,0)
    %instr stb r, r, #imm16 (char) {m[$2 + $3] = $1;} [FXD; FXC; FXW] (1,1,0)
    %instr sth r, r, #imm16 (short) {m[$2 + $3] = $1;} [FXD; FXC; FXW] (1,1,0)
    %instr stfd f, r, #imm16 (double) {m[$2 + $3] = $1;} [FXD; FXC; FXW] (1,1,0)
    %instr cal r, r, #imm16 {$1 = $2 + $3;} [FXD; FXW] (1,1,0)
    %instr cax r, r, r {$1 = $2 + $3;} [FXD; FXW] (1,1,0)
    %instr sf r, r, r {$1 = $2 - $3;} [FXD; FXW] (1,1,0)
    %instr neg r, r {$1 = -$2;} [FXD; FXW] (1,1,0)
    %instr muls r, r, r {$1 = $2 * $3;} [FXD; FXW; FXW; FXW; FXW] (1,5,0)
    %instr divs r, r, r {$1 = $2 / $3;} [FXD; FXW] (1,19,0)
    %instr rems r, r, r {$1 = $2 % $3;} [FXD; FXW] (1,19,0)
    %instr and r, r, r {$1 = $2 & $3;} [FXD; FXW] (1,1,0)
    %instr andi r, r, #uimm16 {$1 = $2 & $3;} [FXD; FXW] (1,1,0)
    %instr or r, r, r {$1 = $2 | $3;} [FXD; FXW] (1,1,0)
    %instr ori r, r, #uimm16 {$1 = $2 | $3;} [FXD; FXW] (1,1,0)
    %instr xor r, r, r {$1 = $2 ^ $3;} [FXD; FXW] (1,1,0)
    %instr not r, r {$1 = ~$2;} [FXD; FXW] (1,1,0)
    %instr sl r, r, r {$1 = $2 << $3;} [FXD; FXW] (1,1,0)
    %instr sli r, r, #imm16 {$1 = $2 << $3;} [FXD; FXW] (1,1,0)
    %instr sra r, r, r {$1 = $2 >> $3;} [FXD; FXW] (1,1,0)
    %instr srai r, r, #imm16 {$1 = $2 >> $3;} [FXD; FXW] (1,1,0)
    %instr lil r, #imm16 {$1 = $2;} [FXD; FXW] (1,1,0)
    %instr liu r, #any {$1 = high($2);} [FXD; FXW] (1,1,0)
    %instr oril r, r, #any {$1 = $2 | low($3);} [FXD; FXW] (1,1,0)
    %instr la r, #addr32 {$1 = $2;} [FXD; FXW] (1,2,0)
    %instr cmp r, r, r {$1 = $2 :: $3;} [FXD; FXW] (1,1,0)
    %instr cmpi r, r, #imm16 {$1 = $2 :: $3;} [FXD; FXW] (1,1,0)
    %instr slt r, r, r {$1 = $2 < $3;} [FXD; FXW] (1,1,0)

    /* Floating point unit: 2-cycle pipelined MAF core. */
    %instr fcmp r, f, f {$1 = $2 :: $3;} [FPD; FPA; FPW] (1,3,0)
    %instr fa f, f, f (double) {$1 = $2 + $3;} [FPD; FPA; FPW] (1,2,0)
    %instr fs f, f, f (double) {$1 = $2 - $3;} [FPD; FPA; FPW] (1,2,0)
    %instr fm f, f, f (double) {$1 = $2 * $3;} [FPD; FPM; FPW] (1,2,0)
    %instr fd f, f, f (double) {$1 = $2 / $3;} [FPD; FPM] (1,17,0)
    %instr fneg f, f (double) {$1 = -$2;} [FPD; FPW] (1,1,0)
    %instr fcid f, r (double) {$1 = (double)$2;} [FPD; FPA; FPW] (1,3,0)
    %instr fcdi r, f (int) {$1 = (int)$2;} [FPD; FPA; FPW] (1,3,0)

    /* Branch unit: zero delay slots — branches resolve ahead. */
    %instr beq0 r, #rlab {if ($1 == 0) goto $2;} [BRU] (1,1,0)
    %instr bne0 r, #rlab {if ($1 != 0) goto $2;} [BRU] (1,1,0)
    %instr blt0 r, #rlab {if ($1 < 0) goto $2;} [BRU] (1,1,0)
    %instr ble0 r, #rlab {if ($1 <= 0) goto $2;} [BRU] (1,1,0)
    %instr bgt0 r, #rlab {if ($1 > 0) goto $2;} [BRU] (1,1,0)
    %instr bge0 r, #rlab {if ($1 >= 0) goto $2;} [BRU] (1,1,0)
    %instr b #rlab {goto $1;} [BRU] (1,1,0)
    %instr bl #flab {call $1;} [BRU] (1,1,0)
    %instr blr {ret;} [BRU] (1,1,0)
    %instr nop {;} [FXD] (1,1,0)

    %move mov r, r {$1 = $2;} [FXD; FXW] (1,1,0)
    %move fmr f, f (double) {$1 = $2;} [FPD; FPW] (1,1,0)

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
