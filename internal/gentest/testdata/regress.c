/* One function per miscompile found and fixed, each computing a value
   its test states: the C answer, on every target and strategy. */

/* Pointer compound assignment scales by the element size, also when
   the pointer lives in a register. */
int ptradd() {
    int v[4];
    int *p;
    v[0] = 1; v[1] = 2; v[2] = 3; v[3] = 4;
    p = &v[0];
    p += 2;
    return *p;
}

int ptrsub() {
    int v[4];
    int *p;
    v[0] = 1; v[1] = 2; v[2] = 3; v[3] = 4;
    p = &v[3];
    p -= 2;
    return *p;
}

int ptraddn(int n) {
    int v[4];
    int *p;
    v[0] = 1; v[1] = 2; v[2] = 3; v[3] = 4;
    p = &v[0];
    p += n;
    return *p;
}

int ptrwalk() {
    int v[4];
    int *p;
    int s;
    int i;
    v[0] = 1; v[1] = 2; v[2] = 3; v[3] = 4;
    p = &v[0];
    s = 0;
    for (i = 0; i < 2; i++) { s += *p; p += 2; }
    return s;
}

double dptradd() {
    double d[4];
    double *q;
    d[0] = 1.0; d[1] = 2.0; d[2] = 3.0; d[3] = 4.0;
    q = &d[0];
    q += 1;
    return *q;
}

/* An array initializer decays to a pointer, as in assignment. */
int ptrinit() {
    int v[4];
    int *p = v;
    v[0] = 1; v[1] = 2; v[2] = 3; v[3] = 4;
    return p[1] + p[3];
}

/* Compound assignment computes in the usual arithmetic conversions and
   converts the result back: i *= 1.5 is i = (int)(i * 1.5). */
int cmpdmul() {
    int i = 7;
    i *= 1.5;
    return i;
}

int cmpdadd() {
    int i = 7;
    i += 2.75;
    return i;
}

/* A narrowing conversion truncates and sign-extends, into a register
   as well as through a cast: c = 300 keeps 44, s = 70000 keeps 4464. */
int narrowchar(int x) {
    char c;
    c = x;
    return c;
}

int narrowshort(int x) {
    short s;
    s = x;
    return s;
}

int castchar(int x) {
    return (char)x;
}

int castconst() {
    return (char)300;
}

int castneg() {
    return (char)200;
}

/* A register-resident char keeps its arithmetic narrowed: c += x and
   ++c wrap to a negative char, as C truncates the result. */
int cmpdchar(int x) {
    char c;
    c = 100;
    c += x;
    return c;
}

int postincchar(int x) {
    char c;
    c = x;
    c++;
    return c;
}

int preincchar(int x) {
    char c;
    c = x;
    return ++c;
}
