"""QUADPACK's QAGI on (-inf, inf), ported line for line.

The routines are dqagie (only inf = 2, bound 0), its 15-point Gauss-Kronrod
rule dqk15i, the error-list sort dqpsrt and the epsilon algorithm dqelg of
Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, *QUADPACK* (Springer,
1983).  Every floating-point operation is the reference's, in the reference's
order, and the nodes and weights are QUADPACK's full-precision values rounded
once to double, so a result and its error estimate are the floats that
scipy.integrate.quad returns for the same integrand (tests/test_quadpack.py).
Arrays keep the reference's 1-based indices; slot 0 is unused.

qagie takes the rule as a function of the interval, so a caller can share one
rule evaluation between several integrands: qk15i evaluates the real and the
imaginary part of a complex integrand on the same nodes.
"""

from __future__ import annotations

import sys

EPMACH = sys.float_info.epsilon  # d1mach(4)
UFLOW = sys.float_info.min       # d1mach(1)
OFLOW = sys.float_info.max       # d1mach(2)

# dqk15i: the 15-point Kronrod abscissae on (-1, 1) and their weights, and the
# 7-point Gauss weights (wg[j] = 0 where xgk[j] is not a Gauss node); index 7
# is the centre
XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245, 0.0)
WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
WG = (0.0, 0.129484966168869693270611432679082,
      0.0, 0.279705391489276667901467771423780,
      0.0, 0.381830050505118944950369775488975,
      0.0, 0.417959183673469387755102040816327)
_RULE = tuple(zip(XGK[:7], WGK[:7], WG[:7]))


def qk15i(f, a: float, b: float):
    """dqk15i with inf = 2 and bound 0 on (a, b), 0 <= a < b <= 1, for a complex
    integrand f: t = (1 - x) / x maps (0, 1] onto [0, inf), and the rule takes
    f(t) + f(-t) at each node.

    Each node's pair is summed once, as one complex number; the rule then runs
    on its real and on its imaginary part, each with dqk15i's own float
    operations (complex + adds componentwise, so the sum's real part is the
    reference's f(t) + f(-t) of the real part).  Returns (result, abserr,
    resabs, resasc) of the real part, then of the imaginary part.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    # the reference's boun + dinf * (1 - x) / x, with boun = 0 and dinf = 1
    t = (1.0 - centr) / centr
    fc = f(t) + f(-t)
    fcr = (fc.real / centr) / centr
    fci = (fc.imag / centr) / centr
    resgr = WG[7] * fcr
    reskr = WGK[7] * fcr
    resabsr = abs(reskr)
    resgi = WG[7] * fci
    reski = WGK[7] * fci
    resabsi = abs(reski)
    fv = []
    for x, wgk, wg in _RULE:
        d = hlgth * x
        absc1 = centr - d
        absc2 = centr + d
        t1 = (1.0 - absc1) / absc1
        t2 = (1.0 - absc2) / absc2
        f1 = f(t1) + f(-t1)
        f2 = f(t2) + f(-t2)
        r1 = (f1.real / absc1) / absc1
        r2 = (f2.real / absc2) / absc2
        i1 = (f1.imag / absc1) / absc1
        i2 = (f2.imag / absc2) / absc2
        fv.append((wgk, r1, r2, i1, i2))
        fsum = r1 + r2
        resgr = resgr + wg * fsum
        reskr = reskr + wgk * fsum
        resabsr = resabsr + wgk * (abs(r1) + abs(r2))
        fsum = i1 + i2
        resgi = resgi + wg * fsum
        reski = reski + wgk * fsum
        resabsi = resabsi + wgk * (abs(i1) + abs(i2))
    rh = reskr * 0.5
    ih = reski * 0.5
    resascr = WGK[7] * abs(fcr - rh)
    resasci = WGK[7] * abs(fci - ih)
    for wgk, r1, r2, i1, i2 in fv:
        resascr = resascr + wgk * (abs(r1 - rh) + abs(r2 - rh))
        resasci = resasci + wgk * (abs(i1 - ih) + abs(i2 - ih))
    return (_errors(reskr, resgr, resabsr, resascr, hlgth),
            _errors(reski, resgi, resabsi, resasci, hlgth))


def _errors(resk, resg, resabs, resasc, hlgth):
    """The end of dqk15i for one part: (result, abserr, resabs, resasc) on (a, b)."""
    result = resk * hlgth
    resasc = resasc * hlgth
    resabs = resabs * hlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        r = 200.0 * abserr / resasc
        abserr = resasc * (r ** 1.5 if r < 1.0 else 1.0)
    if resabs > UFLOW / (50.0 * EPMACH):
        abserr = max((EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def qagie(rule, epsabs: float, epsrel: float, limit: int):
    """dqagie with inf = 2 and bound 0: the integral over (-inf, inf) whose
    15-point rule on (a, b) is rule(a, b) -> (result, abserr, resabs, resasc).

    Returns (result, abserr, last, ier) with QUADPACK's meanings: last is the
    number of subintervals used, ier 0 is success, 1 the subdivision limit,
    2 roundoff, 3 bad integrand behaviour, 4 no convergence of the
    extrapolation, 5 probable divergence and 6 invalid tolerances.
    """
    ier = 0
    last = 0
    result = 0.0
    abserr = 0.0
    if epsabs <= 0.0 and epsrel < max(50.0 * EPMACH, 0.5e-28):
        return result, abserr, last, 6
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    blist[1] = 1.0

    # first approximation to the integral
    result, abserr, defabs, resabs = rule(0.0, 1.0)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    if abserr <= 100.0 * EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, last, ier

    # initialization
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = OFLOW
    nrmax = 1
    nres = 0
    ktmin = 0
    numrl2 = 2
    extrap = False
    noext = False
    ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = -1
    if dres >= (1.0 - 50.0 * EPMACH) * defabs:
        ksgn = 1

    # main loop: every exit goes to the final result (100) or to the sum (115)
    summed = False
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = rule(a1, b1)
        area2, error2, resabs, defab2 = rule(a2, b2)

        # improve previous approximations to integral and error, test accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # roundoff, the subdivision limit and bad integrand behaviour
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW):
            ier = 4

        # append the newly-created intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2

        # keep the error list descending; pick the interval to bisect next
        maxerr, errmax, nrmax = qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest interval?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: before bisecting,
            # decrease the error sum over the larger intervals and extrapolate
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # perform extrapolation
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break

        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # set final result and error estimate (100 to 110)
    if not summed:
        summed = abserr == OFLOW
    if not summed:
        test = True  # go on to the divergence test (110)
        if ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                summed = True
            elif area == 0.0:
                test = False
        if not summed and test and not (
                ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
            # the divergence test; result / area is inf or nan when area is 0
            if area == 0.0:
                diverges = result != 0.0 or errsum > 0.0
            else:
                ratio = result / area
                diverges = 0.01 > ratio or ratio > 100.0 or errsum > abs(area)
            if diverges:
                ier = 6
    if summed:  # compute the global integral sum (115)
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier = ier - 1
    return result, abserr, last, ier


def qpsrt(limit: int, last: int, maxerr: int, elist, iord, nrmax: int):
    """dqpsrt: keep iord descending by error estimate, and return the
    (maxerr, ermax, nrmax) of the nrmax-th largest error estimate."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        # in the normal case the insert starts after the nrmax-th largest
        # estimate; a difficult integrand can make it start earlier
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # the number of estimates kept in order depends on the subdivisions left
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        # insert errmax top-down, then errmin bottom-up
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def qelg(n: int, epstab, res3la, nres: int):
    """dqelg: the epsilon algorithm on epstab[1..n], the last entry new.

    Updates epstab and res3la in place; returns (n, result, abserr, nres)."""
    nres += 1
    abserr = OFLOW
    result = epstab[n]
    if n >= 3:
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = OFLOW
        num = n
        k1 = n
        converged = False
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * EPMACH
            if err2 <= tol2 and err3 <= tol3:
                # e0, e1 and e2 are equal to within machine accuracy
                result = res
                abserr = err2 + err3
                converged = True
                break
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * EPMACH
            # two elements very close to each other, or irregular behaviour:
            # omit a part of the table by adjusting n
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                n = i + i - 1
                break
            # a new element, and eventually a new result
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 = k1 - 2
            error = err2 + abs(res - e2) + err3
            if error > abserr:
                continue
            abserr = error
            result = res
        if not converged:
            # shift the table
            if n == limexp:
                n = 2 * (limexp // 2) - 1
            ib = 2 if num % 2 == 0 else 1
            for _ in range(newelm + 1):
                ib2 = ib + 2
                epstab[ib] = epstab[ib2]
                ib = ib2
            if num != n:
                indx = num - n + 1
                for i in range(1, n + 1):
                    epstab[i] = epstab[indx]
                    indx += 1
            if nres < 4:
                res3la[nres] = result
                abserr = OFLOW
            else:
                abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                          + abs(result - res3la[1]))
                res3la[1] = res3la[2]
                res3la[2] = res3la[3]
                res3la[3] = result
    abserr = max(abserr, 5.0 * EPMACH * abs(result))
    return n, result, abserr, nres
