package targets

// toypMaril is the paper's toy processor (Figures 1-3), extended with the
// instructions needed to compile the full C subset: multiply/divide,
// relational values, conversions, calls and 32-bit constant synthesis.
// TOYP has a 5-stage integer pipeline, a 5-stage floating point add
// pipeline and eight 32-bit registers overlaid by four 64-bit d registers.
const toypMaril = `
%machine TOYP;

declare {
    %reg r[0:7] (int, ptr);         /* integer registers */
    %reg d[0:3] (double);           /* double float registers */
    %equiv r[0] d[0];               /* d regs overlay r regs */
    %resource IF, ID, IE, IA, IW;   /* fetch, decode, execute, access, writeback */
    %resource F1, F2, F3, F4, F5;   /* floating add pipe */
    %def const16 [-32768:32767];    /* signed immediate */
    %def zero [0:0];                /* guard: comparison against zero */
    %def ucon16 [0:65535];          /* unsigned immediate (ori) */
    %def addr32 [-2147483648:2147483647] +addr; /* relocatable address */
    %label rlab [-32768:32767] +relative;       /* branch offset */
    %label flab [-33554432:33554431];           /* call target */
    %memory m[0:2147483647];
}

cwvm {
    %general (int, ptr) r;
    %general (double) d;
    %allocable r[2:5], d[1:2];
    %calleesave r[4:5], d[2:2];
    %sp r[7] +down;
    %fp r[6] +down;
    %retaddr r[1];
    %hard r[0] 0;
    %arg (int) r[2] 1;
    %arg (int) r[3] 2;
    %arg (double) d[1] 1;
    %result r[2] (int);
    %result d[1] (double);
    %stackarg 0;
}

instr {
    /* Loads and stores. */
    %instr ld r, r, #const16 {$1 = m[$2 + $3];} [IF; ID; IE; IA; IW] (1,3,0)
    %instr ld.b r, r, #const16 (char) {$1 = m[$2 + $3];} [IF; ID; IE; IA; IW] (1,3,0)
    %instr ld.h r, r, #const16 (short) {$1 = m[$2 + $3];} [IF; ID; IE; IA; IW] (1,3,0)
    %instr ld.d d, r, #const16 (double) {$1 = m[$2 + $3];} [IF; ID; IE; IA; IW] (1,3,0)
    %instr st r, r, #const16 {m[$2 + $3] = $1;} [IF; ID; IE; IA; IW] (1,1,0)
    %instr st.b r, r, #const16 (char) {m[$2 + $3] = $1;} [IF; ID; IE; IA; IW] (1,1,0)
    %instr st.h r, r, #const16 (short) {m[$2 + $3] = $1;} [IF; ID; IE; IA; IW] (1,1,0)
    %instr st.d d, r, #const16 (double) {m[$2 + $3] = $1;} [IF; ID; IE; IA; IW] (1,1,0)

    /* Integer arithmetic. */
    %instr addi r, r, #const16 {$1 = $2 + $3;} [IF; ID; IE; IA; IW] (1,1,0)
    %instr add r, r, r {$1 = $2 + $3;} [IF; ID; IE; IA; IW] (1,1,0)
    %instr sub r, r, r {$1 = $2 - $3;} [IF; ID; IE; IA; IW] (1,1,0)
    %instr neg r, r {$1 = -$2;} [IF; ID; IE; IA; IW] (1,1,0)
    %instr mul r, r, r {$1 = $2 * $3;} [IF; ID; IE; IA; IW] (1,5,0)
    %instr div r, r, r {$1 = $2 / $3;} [IF; ID; IE; IA; IW] (1,12,0)
    %instr rem r, r, r {$1 = $2 % $3;} [IF; ID; IE; IA; IW] (1,12,0)
    %instr and r, r, r {$1 = $2 & $3;} [IF; ID; IE; IA; IW] (1,1,0)
    %instr or r, r, r {$1 = $2 | $3;} [IF; ID; IE; IA; IW] (1,1,0)
    %instr ori r, r, #ucon16 {$1 = $2 | $3;} [IF; ID; IE; IA; IW] (1,1,0)
    %instr xor r, r, r {$1 = $2 ^ $3;} [IF; ID; IE; IA; IW] (1,1,0)
    %instr not r, r {$1 = ~$2;} [IF; ID; IE; IA; IW] (1,1,0)
    %instr sll r, r, r {$1 = $2 << $3;} [IF; ID; IE; IA; IW] (1,1,0)
    %instr slli r, r, #const16 {$1 = $2 << $3;} [IF; ID; IE; IA; IW] (1,1,0)
    %instr sra r, r, r {$1 = $2 >> $3;} [IF; ID; IE; IA; IW] (1,1,0)
    %instr srai r, r, #const16 {$1 = $2 >> $3;} [IF; ID; IE; IA; IW] (1,1,0)

    /* Constants and addresses. */
    %instr li r, #const16 {$1 = $2;} [IF; ID; IE; IA; IW] (1,1,0)
    %instr lui r, #any {$1 = high($2);} [IF; ID; IE; IA; IW] (1,1,0)
    %instr oril r, r, #any {$1 = $2 | low($3);} [IF; ID; IE; IA; IW] (1,1,0)
    %instr la r, #addr32 {$1 = $2;} [IF; ID; IE; IA; IW] (1,2,0)

    /* Generic compare and relational values. */
    %instr cmpi r, r, #const16 {$1 = $2 :: $3;} [IF; ID; IE; IA; IW] (1,1,0)
    %instr cmp r, r, r {$1 = $2 :: $3;} [IF; ID; IE; IA; IW] (1,1,0)
    %instr fcmp r, d, d {$1 = $2 :: $3;} [IF; ID; F1; F2; F3; F4; F5] (1,4,0)
    %instr slt r, r, r {$1 = $2 < $3;} [IF; ID; IE; IA; IW] (1,1,0)
    %instr slti r, r, #const16 {$1 = $2 < $3;} [IF; ID; IE; IA; IW] (1,1,0)

    /* Floating point. */
    %instr fadd.d d, d, d (double) {$1 = $2 + $3;} [IF; ID; F1; F2; F3; F4; F5] (1,6,0)
    %instr fsub.d d, d, d (double) {$1 = $2 - $3;} [IF; ID; F1; F2; F3; F4; F5] (1,6,0)
    %instr fmul.d d, d, d (double) {$1 = $2 * $3;} [IF; ID; F1; F1; F2; F3; F4; F5] (1,7,0)
    %instr fdiv.d d, d, d (double) {$1 = $2 / $3;} [IF; ID; F1; F1; F1; F1; F2; F3; F4; F5] (1,19,0)
    %instr fneg.d d, d (double) {$1 = -$2;} [IF; ID; F1; F2] (1,2,0)
    %instr cvt.d.w d, r (double) {$1 = (double)$2;} [IF; ID; F1; F2; F3] (1,3,0)
    %instr cvt.w.d r, d (int) {$1 = (int)$2;} [IF; ID; F1; F2; F3] (1,3,0)

    /* Control transfer: 1 always-executed delay slot each. */
    %instr beq0 r, #rlab {if ($1 == 0) goto $2;} [IF; ID; IE] (1,2,1)
    %instr bne0 r, #rlab {if ($1 != 0) goto $2;} [IF; ID; IE] (1,2,1)
    %instr blt0 r, #rlab {if ($1 < 0) goto $2;} [IF; ID; IE] (1,2,1)
    %instr ble0 r, #rlab {if ($1 <= 0) goto $2;} [IF; ID; IE] (1,2,1)
    %instr bgt0 r, #rlab {if ($1 > 0) goto $2;} [IF; ID; IE] (1,2,1)
    %instr bge0 r, #rlab {if ($1 >= 0) goto $2;} [IF; ID; IE] (1,2,1)
    %instr j #rlab {goto $1;} [IF; ID; IE] (1,1,1)
    %instr jal #flab {call $1;} [IF; ID; IE] (1,1,1)
    %instr jr r {callr $1;} [IF; ID; IE] (1,1,1)
    %instr ret {ret;} [IF; ID; IE] (1,1,1)
    %instr nop {;} [IF; ID] (1,1,0)

    /* Single register move, referenced by movd. */
    %move [s.mov] add.m r, r {$1 = $2;} [IF; ID; IE; IA; IW] (1,1,0)

    /* Double register move: two single moves on the overlapping r
       registers (the paper's *movd escape, written as a %seq). */
    %seq movd d, d (double) {$1 = $2;} = s.mov(lo($1), lo($2)); s.mov(hi($1), hi($2));

    /* Auxiliary latency: a double store of a just-computed fadd.d result
       observes one extra cycle (paper Figure 3). */
    %aux fadd.d : st.d (1.$1 == 2.$1) (7)

    /* Glue: expand compare-and-branch into generic compare + test, and
       synthesize 32-bit constants that do not fit an immediate. */
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
    %glue #any { $1 ==> (high($1) | low($1)); } if !fits($1, const16);
}
`
